package mc

import (
	"math"
	"math/rand"
	"testing"
)

// mixedDraw makes draw k of a test stream, cycling through the *rand.Rand
// methods trials use, and returns its bits for exact comparison.
func mixedDraw(rng *rand.Rand, k int) uint64 {
	switch k % 6 {
	case 0:
		return uint64(rng.Int63())
	case 1:
		return rng.Uint64()
	case 2:
		return math.Float64bits(rng.Float64())
	case 3:
		return math.Float64bits(rng.ExpFloat64())
	case 4:
		return math.Float64bits(rng.NormFloat64())
	default:
		return uint64(rng.Intn(1 + k))
	}
}

// FuzzSeedStream checks n mixed draws of a reseeded lazySource against
// math/rand's own source for the same seed. The source is dirtied under
// another seed first, as an engine worker's is between trials.
func FuzzSeedStream(f *testing.F) {
	const m = 1<<31 - 1
	for _, seed := range []int64{0, -1, 1, m, -m, m - 1, m + 1, math.MinInt64, math.MaxInt64} {
		for _, n := range []uint16{0, 1, 272, 273, 274, 606, 607, 608, 2000} {
			f.Add(seed, n)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		got := rand.New(new(lazySource))
		got.Seed(^seed)
		for k := 0; k < int(n)/2; k++ {
			mixedDraw(got, k)
		}
		got.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for k := 0; k < int(n); k++ {
			if g, w := mixedDraw(got, k), mixedDraw(want, k); g != w {
				t.Fatalf("seed %d: draw %d is %#x, want %#x", seed, k, g, w)
			}
		}
	})
}

// BenchmarkMCSeed measures reseeding the engine's per-worker rng, the step
// that replaces building rand.New(rand.NewSource(seed+i)) per trial.
func BenchmarkMCSeed(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(new(lazySource))
	for i := 0; i < b.N; i++ {
		rng.Seed(int64(i))
	}
}
