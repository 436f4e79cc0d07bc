package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestSketchExactBelowCapacity(t *testing.T) {
	s := NewSketch(64)
	xs := []float64{9, 1, 7, 3, 5}
	for _, x := range xs {
		s.Add(x)
	}
	if s.RankErrorBound() != 0 {
		t.Fatalf("uncompacted sketch reports error bound %d", s.RankErrorBound())
	}
	if got := s.Quantile(0); got != 1 {
		t.Errorf("q0: %v", got)
	}
	if got := s.Quantile(1); got != 9 {
		t.Errorf("q1: %v", got)
	}
	if got := s.Quantile(0.5); got != 5 {
		t.Errorf("median: %v", got)
	}
	if got := s.Rank(5); got != 3 {
		t.Errorf("rank(5) = %d, want 3", got)
	}
}

func TestSketchDeterministic(t *testing.T) {
	run := func() []float64 {
		s := NewSketch(32)
		for i := 0; i < 10000; i++ {
			s.Add(float64(i * 7 % 10000))
		}
		var flat []float64
		for _, lv := range s.levels {
			flat = append(flat, lv...)
		}
		return flat
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("retained sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("retained set not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestSketchRankErrorBoundMillion is the accuracy acceptance test: on 10⁶
// samples the sketch's self-reported rank-error bound must hold against
// exact ranks at every probed point, and the bound itself must be small
// enough to be useful (≈2% of n at k = 512).
func TestSketchRankErrorBoundMillion(t *testing.T) {
	const n = 1_000_000
	rng := rand.New(rand.NewSource(42))
	s := NewSketch(512)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()*100 + rng.Float64() // continuous, effectively distinct
		s.Add(xs[i])
	}
	sort.Float64s(xs)

	bound := s.RankErrorBound()
	if bound <= 0 {
		t.Fatal("a million samples through a k=512 sketch must have compacted")
	}
	if frac := float64(bound) / n; frac > 0.03 {
		t.Errorf("rank-error bound %.2f%% of n is too loose for k=512", 100*frac)
	}
	if retained := s.Retained(); retained > 512*25 {
		t.Errorf("sketch retains %d values, want O(k·log(n/k))", retained)
	}

	// Probe the whole range, including the tails the farm metrics care about.
	var worst int64
	for i := 0; i <= 200; i++ {
		q := float64(i) / 200
		x := xs[int(q*float64(n-1))]
		trueRank := int64(sort.SearchFloat64s(xs, x)) // #values < x; ties negligible
		for trueRank < n && xs[trueRank] <= x {
			trueRank++
		}
		err := s.Rank(x) - trueRank
		if err < 0 {
			err = -err
		}
		if err > worst {
			worst = err
		}
		if err > bound {
			t.Fatalf("q=%.3f: rank error %d exceeds guaranteed bound %d", q, err, bound)
		}
	}
	t.Logf("n=%d k=512: bound=%d (%.3f%% of n), worst observed=%d, retained=%d",
		n, bound, 100*float64(bound)/n, worst, s.Retained())

	// Quantile answers land within bound + own weight of the target rank.
	maxW := int64(1) << (len(s.levels) - 1)
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999} {
		v := s.Quantile(q)
		r := int64(sort.SearchFloat64s(xs, v))
		target := int64(q * n)
		err := r - target
		if err < 0 {
			err = -err
		}
		if err > bound+maxW {
			t.Errorf("quantile %.3f: value rank %d vs target %d, error %d > %d", q, r, target, err, bound+maxW)
		}
	}
}

// TestSketchMergeOrderInvariant is the mergeability acceptance test: pooling
// shard sketches in any order must report the same quantiles (the property
// internal/mc's shard merge relies on for tail metrics).
func TestSketchMergeOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const shards = 16
	parts := make([]*Sketch, shards)
	for i := range parts {
		parts[i] = NewSketch(64)
		for j := 0; j < 3000+500*i; j++ { // uneven shard sizes
			parts[i].Add(rng.ExpFloat64() * float64(i+1))
		}
	}
	quantiles := []float64{0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
	read := func(order []int) []float64 {
		m := NewSketch(64)
		for _, i := range order {
			m.Merge(parts[i])
		}
		out := make([]float64, len(quantiles))
		for k, q := range quantiles {
			out[k] = m.Quantile(q)
		}
		if m.N() != sumN(parts) {
			t.Fatalf("merged N %d", m.N())
		}
		return out
	}
	fwd := make([]int, shards)
	rev := make([]int, shards)
	shuf := make([]int, shards)
	for i := 0; i < shards; i++ {
		fwd[i] = i
		rev[i] = shards - 1 - i
	}
	copy(shuf, fwd)
	rand.New(rand.NewSource(1)).Shuffle(shards, func(a, b int) { shuf[a], shuf[b] = shuf[b], shuf[a] })

	a, b, c := read(fwd), read(rev), read(shuf)
	for k := range quantiles {
		if a[k] != b[k] || a[k] != c[k] {
			t.Errorf("q=%.2f depends on merge order: fwd=%v rev=%v shuf=%v", quantiles[k], a[k], b[k], c[k])
		}
	}
}

func sumN(parts []*Sketch) int64 {
	var n int64
	for _, p := range parts {
		n += p.N()
	}
	return n
}

func TestSketchMergePreservesBoundAndWeight(t *testing.T) {
	a, b := NewSketch(16), NewSketch(16)
	for i := 0; i < 1000; i++ {
		a.Add(float64(i))
		b.Add(float64(-i))
	}
	ba, bb := a.RankErrorBound(), b.RankErrorBound()
	a.Merge(b)
	if a.N() != 2000 {
		t.Errorf("merged N %d", a.N())
	}
	if a.RankErrorBound() != ba+bb {
		t.Errorf("merged bound %d, want %d", a.RankErrorBound(), ba+bb)
	}
	// Total represented weight equals N: compaction conserves weight exactly.
	var w int64
	for l, vals := range a.levels {
		w += int64(len(vals)) << l
	}
	if w != a.N() {
		t.Errorf("retained weight %d ≠ N %d", w, a.N())
	}
	a.Compact()
	for l, vals := range a.levels {
		if len(vals) >= 16 && l < len(a.levels)-1 {
			t.Errorf("level %d still over capacity after Compact: %d", l, len(vals))
		}
	}
}

func TestSketchEmptyAndClamp(t *testing.T) {
	s := NewSketch(-3)
	if s.Quantile(0.5) != 0 || s.Rank(1) != 0 || s.N() != 0 {
		t.Error("empty sketch should read zero")
	}
	if s.k < 8 || s.k%2 != 0 {
		t.Errorf("capacity clamp: %d", s.k)
	}
	s.Merge(nil)
	s.Merge(NewSketch(8))
	if s.N() != 0 {
		t.Error("merging empties should stay empty")
	}
	if math.IsNaN(s.Quantile(2)) {
		t.Error("clamped q")
	}
}

// TestSketchQuantilesTiedWeights pins the quantiles of a sketch whose
// retained set holds the same values at several weights. The sort inside
// Quantiles leaves tied values in no particular order; the answers must not
// depend on it, so they are checked against a reference that pools each
// distinct value's weight, and again after shuffling every level.
func TestSketchQuantilesTiedWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSketch(8)
	for i := 0; i < 1000; i++ {
		s.Add(float64(rng.Intn(4)))
	}
	weightsOf := map[float64]map[int64]bool{}
	pooled := map[float64]int64{}
	for l, vals := range s.levels {
		for _, v := range vals {
			if weightsOf[v] == nil {
				weightsOf[v] = map[int64]bool{}
			}
			weightsOf[v][int64(1)<<l] = true
			pooled[v] += int64(1) << l
		}
	}
	mixed := false
	for _, ws := range weightsOf {
		mixed = mixed || len(ws) > 1
	}
	if !mixed {
		t.Fatal("no value is retained at two different weights; the test shape does not exercise ties")
	}
	distinct := make([]float64, 0, len(pooled))
	for v := range pooled {
		distinct = append(distinct, v)
	}
	sort.Float64s(distinct)
	want := func(q float64) float64 {
		target := q * float64(s.N())
		var cum float64
		for _, v := range distinct {
			cum += float64(pooled[v])
			if cum >= target {
				return v
			}
		}
		return distinct[len(distinct)-1]
	}
	var qs []float64
	for k := 0; k <= 200; k++ {
		qs = append(qs, float64(k)/200)
	}
	check := func(label string) {
		got := s.Quantiles(qs...)
		for k, q := range qs {
			if w := want(q); got[k] != w {
				t.Errorf("%s: q=%.3f got %v want %v", label, q, got[k], w)
			}
		}
	}
	check("as built")
	for _, vals := range s.levels {
		rng.Shuffle(len(vals), func(a, b int) { vals[a], vals[b] = vals[b], vals[a] })
	}
	check("levels shuffled")
}
