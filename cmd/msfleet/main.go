// Command msfleet runs a concurrent multi-tag deployment: N backscatter
// tags on a floor-plan grid, a shared excitation timeline from a named
// scenario (or explicit rates), K receivers, cross-tag collision
// arbitration, and aggregated fleet metrics. It prints a markdown report
// and can additionally dump the full result as JSON.
//
// Usage:
//
//	msfleet [-scenario office] [-tags 50] [-floor 30x50] [-receivers 2]
//	        [-span 10s] [-seed 1] [-workers 0] [-capture 10] [-joint 0]
//	        [-shadow 0] [-phase 0] [-baseline doubledecker]
//	        [-lux 0] [-top 5] [-json fleet.json]
//	        [-journal run.journal] [-replay golden.journal]
//	        [-trace run.jsonl] [-trace-sample 100] [-trace-format chrome]
//	        [-obs :6060] [-obs-hold 5s] [-v] [-q]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"multiscatter/internal/clilog"
	"multiscatter/internal/excite"
	"multiscatter/internal/fleet"
	"multiscatter/internal/obs"
	"multiscatter/internal/obs/obsflag"
	"multiscatter/internal/obs/ptrace/traceflag"
	"multiscatter/internal/replay"
	"multiscatter/internal/serve"
	"multiscatter/internal/sim"
)

var (
	scenario  = flag.String("scenario", "office", "excitation scenario (home, office, cafe, warehouse)")
	tags      = flag.Int("tags", 50, "number of tags on the floor plan")
	floor     = flag.String("floor", "30x50", "floor-plan size WxH in metres")
	receivers = flag.Int("receivers", 1, "number of receivers spread over the floor")
	span      = flag.Duration("span", 10*time.Second, "simulated time span")
	seed      = flag.Int64("seed", 1, "random seed (same seed ⇒ identical result at any -workers)")
	workers   = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	capture   = flag.Float64("capture", 10, "capture margin in dB for cross-tag collisions")
	joint     = flag.Int("joint", 0, "max colliding 802.11n tags decoded jointly (0 = default 4, negative disables)")
	bucketMS  = flag.Int("bucket", 500, "throughput timeline bucket (ms)")
	lux       = flag.Float64("lux", 0, "light level for energy-harvesting tags (0 = unlimited power)")
	top       = flag.Int("top", 5, "show the N highest-rate tags (0 disables)")
	jsonPath  = flag.String("json", "", "also write the full result as JSON to this path ('-' for stdout)")
	journal   = flag.String("journal", "", "write the run's replay journal to this path")
	replayRef = flag.String("replay", "", "diff the run against a recorded journal; exit 1 on drift")
	shadow    = flag.Float64("shadow", 0, "log-normal shadowing σ in dB (0 disables)")
	phase     = flag.Float64("phase", 0, "phase-aware complex channel: residual drift cap in Hz (0 disables; see docs/CHANNELS.md)")
	baseSys   = flag.String("baseline", "", "decoding architecture: empty = multiscatter, 'doubledecker' = single-receiver superposition decoding")
)

func main() {
	flag.Parse()
	lg := clilog.Setup("msfleet")
	defer obsflag.Start("msfleet")()

	sc, err := excite.FindScenario(*scenario)
	if err != nil {
		fmt.Fprintln(os.Stderr, "msfleet:", err)
		os.Exit(2)
	}
	w, h, err := serve.ParseFloor(*floor)
	if err != nil {
		fmt.Fprintln(os.Stderr, "msfleet:", err)
		os.Exit(2)
	}

	// The config is assembled by the same builder msserve jobs use, so a
	// CLI run and a service job with the same (seed, config) are the
	// same run by construction.
	jc := serve.JobConfig{
		Scenario:        *scenario,
		Tags:            *tags,
		FloorW:          w,
		FloorH:          h,
		Receivers:       *receivers,
		SpanMS:          int(*span / time.Millisecond),
		Seed:            *seed,
		CaptureDB:       *capture,
		ConcurrentOFDM:  *joint,
		BucketMS:        *bucketMS,
		ShadowSigmaDB:   *shadow,
		Lux:             *lux,
		PhaseMaxDriftHz: *phase,
		Baseline:        *baseSys,
	}
	if err := jc.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "msfleet:", err)
		os.Exit(2)
	}
	cfg, err := jc.FleetConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "msfleet:", err)
		os.Exit(2)
	}
	cfg.Workers = *workers

	rec := traceflag.Recorder("msfleet")
	cfg.Trace = rec
	lg.Debug("run starting",
		"scenario", sc.Name, "seed", *seed, "workers", *workers, "span", *span,
		"tags", *tags, "receivers", *receivers, "trace", traceflag.Enabled())

	t0 := time.Now()
	res, err := fleet.Run(cfg)
	if err != nil {
		lg.Error("run failed", "err", err)
		os.Exit(1)
	}
	traceflag.Finish("msfleet", rec)
	lg.Debug("run complete",
		"seed", *seed, "workers", *workers, "wall", time.Since(t0).Round(time.Millisecond),
		"packets", res.Events, "fleet_kbps", res.FleetTagKbps)

	fmt.Printf("scenario %q: %s\n\n", sc.Name, sc.Description)
	fmt.Print(res.Markdown())
	if obsflag.Enabled() {
		fmt.Printf("\n## Observability\n\n%s", obs.Default().Snapshot().Markdown())
	}
	if *top > 0 {
		fmt.Printf("\n**Top %d tags by rate:**\n\n", *top)
		fmt.Println("| tag | pos (m) | rx | dist (m) | delivered | kbps |")
		fmt.Println("|---|---|---|---|---|---|")
		for _, t := range res.TopTags(*top) {
			fmt.Printf("| %d | (%.1f, %.1f) | %d | %.1f | %d | %.2f |\n",
				t.ID, t.X, t.Y, t.Receiver, t.DistanceM, t.Outcomes[sim.Delivered], t.TagKbps)
		}
	}

	if *jsonPath != "" {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "msfleet:", err)
			os.Exit(1)
		}
		blob = append(blob, '\n')
		if *jsonPath == "-" {
			os.Stdout.Write(blob)
		} else if err := os.WriteFile(*jsonPath, blob, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "msfleet:", err)
			os.Exit(1)
		} else {
			fmt.Printf("\nwrote %s\n", *jsonPath)
		}
	}

	j := replay.FromFleet(*seed, res)
	if *journal != "" {
		if err := j.WriteFile(*journal); err != nil {
			fmt.Fprintln(os.Stderr, "msfleet:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote replay journal %s (%d entries)\n", *journal, len(j.Entries))
	}
	if *replayRef != "" {
		drift, err := replay.DiffFile(*replayRef, j)
		if err != nil {
			fmt.Fprintln(os.Stderr, "msfleet:", err)
			os.Exit(1)
		}
		if len(drift) > 0 {
			fmt.Fprintf(os.Stderr, "msfleet: replay drift against %s:\n", *replayRef)
			for _, d := range drift {
				fmt.Fprintln(os.Stderr, "  "+d)
			}
			os.Exit(1)
		}
		fmt.Printf("\nreplay matches %s\n", *replayRef)
	}
}
