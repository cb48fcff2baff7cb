// Fleet benchmarks: the concurrent multi-tag deployment engine at 100
// and 1000 tags, each at workers=1 and workers=NumCPU, so the speedup of
// the sharded pool (and the determinism across pool sizes) is measurable
// with `go test -bench Fleet -benchtime 1x`. Each benchmark asserts the
// outcome regime it documents, so a workload cannot silently drift into
// another one. EXPERIMENTS.md records the numbers.
package multiscatter_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"multiscatter"
	"multiscatter/internal/excite"
	"multiscatter/internal/sim"
)

// fleetBenchConfig builds an office-scenario deployment of n tags on a
// floor scaled to keep tag density realistic.
func fleetBenchConfig(n int, span time.Duration, workers int) multiscatter.FleetConfig {
	sc, err := excite.FindScenario("office")
	if err != nil {
		panic(err)
	}
	w, h := 30.0, 50.0
	if n > 100 {
		w, h = 60.0, 100.0
	}
	return multiscatter.FleetConfig{
		Sources:   sc.Sources,
		Tags:      multiscatter.PlaceGrid(n, w, h),
		Receivers: multiscatter.PlaceReceivers(4, w, h),
		Span:      span,
		Seed:      42,
		Workers:   workers,
	}
}

// denseCollapse checks the cross-collision collapse regime: with every
// tag backscattering every packet, no tag clears the capture margin, so
// nothing is delivered and most outcomes are cross-tag collisions.
func denseCollapse(res *multiscatter.FleetResult) error {
	total := 0
	for _, n := range res.Outcomes {
		total += n
	}
	delivered := res.Outcomes[sim.Delivered] + res.Outcomes[sim.DecodedConcurrent]
	cross := res.Outcomes[sim.CrossCollided]
	if delivered != 0 || 2*cross <= total {
		return fmt.Errorf("not the dense-collapse regime: %d delivered, %d of %d outcomes cross-collided",
			delivered, cross, total)
	}
	return nil
}

func benchmarkFleet(b *testing.B, n int, span time.Duration) {
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := fleetBenchConfig(n, span, workers)
			b.ReportAllocs()
			var res *multiscatter.FleetResult
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = multiscatter.RunFleet(cfg); err != nil {
					b.Fatal(err)
				}
			}
			if err := denseCollapse(res); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(n), "tags")
			b.ReportMetric(float64(res.Outcomes[sim.Delivered]), "delivered")
		})
	}
}

// BenchmarkFleet100Tags and BenchmarkFleet1000Tags run the documented
// dense-collapse regime (EXPERIMENTS.md "Fleet scaling").
func BenchmarkFleet100Tags(b *testing.B) {
	benchmarkFleet(b, 100, 2*time.Second)
}

func BenchmarkFleet1000Tags(b *testing.B) {
	benchmarkFleet(b, 1000, 2*time.Second)
}
