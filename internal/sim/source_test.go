package sim

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// equivalenceSeeds are random seeds plus the edges of rngSource.Seed's
// normalisation: zero (replaced by 89482311), ±(2³¹−1) (≡ 0 mod 2³¹−1)
// and the extremes of int64.
func equivalenceSeeds(n int) []int64 {
	seeds := []int64{0, 1, -1, lcgMod, -lcgMod, 89482311, math.MinInt64, math.MaxInt64, 2 * lcgMod}
	r := rand.New(rand.NewSource(20261017))
	for i := 0; i < n; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

func TestLazySourceStreamMatchesMathRand(t *testing.T) {
	const draws = 10000
	for _, seed := range equivalenceSeeds(300) {
		ref := rand.NewSource(seed).(rand.Source64)
		lazy := newLazySource(seed)
		for k := 1; k <= draws; k++ {
			var want, got uint64
			if k%2 == 0 {
				want, got = uint64(ref.Int63()), uint64(lazy.Int63())
			} else {
				want, got = ref.Uint64(), lazy.Uint64()
			}
			if want != got {
				t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, k, got, want)
			}
		}
	}
}

// TestLazySourceThroughRand checks every rand.Rand method the simulators
// use, stopping on both sides of the lazy-to-materialised switch at
// draw rngTap+1, then re-seeds the same Rand and checks again.
func TestLazySourceThroughRand(t *testing.T) {
	stops := []int{0, 1, 2, rngTap - 1, rngTap, rngTap + 1, rngTap + 2, rngLen, 2000}
	for _, seed := range equivalenceSeeds(20) {
		for _, stop := range stops {
			ref := rand.New(rand.NewSource(seed))
			lazy := rand.New(newLazySource(seed))
			for round := 0; round < 2; round++ {
				for i := 0; i < stop; i++ {
					if a, b := ref.Uint64(), lazy.Uint64(); a != b {
						t.Fatalf("seed %d stop %d: Uint64 %d differs", seed, stop, i)
					}
				}
				checkRandMethods(t, seed, stop, ref, lazy)
				ref.Seed(seed + 1)
				lazy.Seed(seed + 1)
			}
		}
	}
}

func checkRandMethods(t *testing.T, seed int64, stop int, ref, lazy *rand.Rand) {
	t.Helper()
	for i := 0; i < 50; i++ {
		if a, b := ref.Float64(), lazy.Float64(); a != b {
			t.Fatalf("seed %d stop %d: Float64 %v != %v", seed, stop, b, a)
		}
		if a, b := ref.NormFloat64(), lazy.NormFloat64(); a != b {
			t.Fatalf("seed %d stop %d: NormFloat64 %v != %v", seed, stop, b, a)
		}
		if a, b := ref.ExpFloat64(), lazy.ExpFloat64(); a != b {
			t.Fatalf("seed %d stop %d: ExpFloat64 %v != %v", seed, stop, b, a)
		}
		if a, b := ref.Intn(1000+i), lazy.Intn(1000+i); a != b {
			t.Fatalf("seed %d stop %d: Intn %d != %d", seed, stop, b, a)
		}
	}
	a, b := ref.Perm(40), lazy.Perm(40)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed %d stop %d: Perm differs at %d", seed, stop, i)
		}
	}
}

func TestSeedRNGAtIsLazy(t *testing.T) {
	src := newLazySource(5)
	r := rand.New(src)
	for i := 0; i < rngTap; i++ {
		r.Uint64()
	}
	if src.vec != nil {
		t.Fatal("source materialised before draw rngTap+1")
	}
	r.Uint64()
	if src.vec == nil {
		t.Fatal("source did not materialise at draw rngTap+1")
	}
}

var sinkU64 uint64

func BenchmarkSeedRNGAt(b *testing.B) {
	for _, draws := range []int{0, 2, 300, 2000} {
		b.Run("draws="+strconv.Itoa(draws), func(b *testing.B) {
			b.ReportAllocs()
			var s uint64
			for i := 0; i < b.N; i++ {
				r := SeedRNGAt(1, StreamFleetShadow, uint64(i))
				for k := 0; k < draws; k++ {
					s += r.Uint64()
				}
			}
			sinkU64 = s
		})
	}
}
