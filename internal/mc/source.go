package mc

import "math/rand"

// lazySource is a rand.Source64 whose output equals rand.NewSource(seed)'s,
// draw for draw, but whose Seed is O(1) and allocation-free. It is what lets
// one worker goroutine reseed a single *rand.Rand per trial instead of
// building a fresh 4.9 KB math/rand source — the seed-stream contract
// (trial i draws from rand.New(rand.NewSource(seed+i))) holds bit for bit.
//
// math/rand's generator is an additive lagged-Fibonacci register of rngLen
// words. Its Seed fills the register from the Park–Miller LCG
// x ← 48271·x mod (2³¹−1): after lcgSkip discarded outputs, entry i is built
// from LCG outputs 21+3i, 22+3i and 23+3i, XORed with the rngCooked table.
// lazySource skips that fill. For the first rngLen draws it computes each
// register entry it reads on the spot, jumping the LCG straight to the
// entry with a precomputed power of the multiplier:
//
//   - the feed entry is always unread in that range (draw k writes feed
//     index (rngLen−rngTap−1−k) mod rngLen, each index exactly once);
//   - the tap entry (index rngLen−1−k) is unread before draw rngTap and from
//     then on holds the output of draw k−rngTap, already in vec.
//
// From draw rngLen on every entry has been written and the plain register
// recurrence takes over.
type lazySource struct {
	x0   uint64 // reduced seed: the LCG state math/rand starts from
	n    int    // draws since Seed, counted up to rngLen
	tap  int
	feed int
	vec  [rngLen]int64
}

// The generator's shape and seeding constants, as in math/rand's rng.go.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	lcgMod   = 1<<31 - 1 // Park–Miller modulus, a Mersenne prime
	lcgMul   = 48271
	lcgSkip  = 20       // LCG outputs discarded before entry 0
	zeroSeed = 89482311 // what a seed ≡ 0 (mod lcgMod) is replaced by
)

var (
	// cooked is math/rand's rngCooked table, recovered at init.
	cooked [rngLen]int64
	// lcgJump[i][j] is lcgMul^(lcgSkip+1+3i+j) mod lcgMod: the factor that
	// takes the reduced seed to the j-th of the three LCG outputs entry i is
	// built from. Three independent jumps keep the products off one
	// dependency chain.
	lcgJump [rngLen][3]uint64
)

func init() {
	p := uint64(1)
	for n := 0; n <= lcgSkip; n++ {
		p = mulMod(p, lcgMul)
	}
	for i := range lcgJump {
		for j := range lcgJump[i] {
			lcgJump[i][j] = p
			p = mulMod(p, lcgMul)
		}
	}
	recoverCooked()
}

// recoverCooked rebuilds rngCooked from rngLen draws of rand.NewSource(1)
// rather than copying a 607-constant table. Draw k (0-based) adds tap index
// rngLen−1−k into feed index (rngLen−rngTap−1−k) mod rngLen, so unwinding
// the draws yields the register right after seeding; XORing out the LCG
// part of each entry leaves the table.
func recoverCooked() {
	ref := rand.NewSource(1).(rand.Source64)
	var out [rngLen]int64
	for k := range out {
		out[k] = int64(ref.Uint64())
	}
	var vec [rngLen]int64
	// Draws from rngTap on read a tap entry that holds draw k−rngTap.
	for k := rngTap; k < rngLen; k++ {
		vec[feedIndex(k)] = out[k] - out[k-rngTap]
	}
	// Earlier draws read a tap entry still as seeded, recovered just above.
	for k := 0; k < rngTap; k++ {
		vec[feedIndex(k)] = out[k] - vec[rngLen-1-k]
	}
	for i := range cooked {
		cooked[i] = vec[i] ^ lcgEntry(1, i)
	}
}

// feedIndex is the register index draw k (0-based, k < rngLen) writes.
func feedIndex(k int) int {
	return (2*rngLen - rngTap - 1 - k) % rngLen
}

// mulMod returns a·b mod lcgMod for a, b in [1, lcgMod), reducing the
// product with the Mersenne-prime fold 2³¹ ≡ 1 instead of divisions. The
// first fold leaves a value in [1, 2·lcgMod]; the second, branch-free, maps
// it into [1, lcgMod) (lcgMod itself would need a·b ≡ 0, impossible for a
// prime modulus).
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&lcgMod + p>>31
	return r&lcgMod + r>>31
}

// lcgEntry is register entry i as math/rand seeds it from reduced seed x0,
// without the rngCooked XOR. The shifts drop bits past 63 exactly as
// math/rand's int64 shifts do.
func lcgEntry(x0 uint64, i int) int64 {
	j := &lcgJump[i]
	return int64(mulMod(x0, j[0])<<40 ^ mulMod(x0, j[1])<<20 ^ mulMod(x0, j[2]))
}

// Seed reduces seed exactly as math/rand's rngSource.Seed does and rewinds
// the draw counter; the register itself is filled lazily.
func (s *lazySource) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.x0 = uint64(seed)
	s.n = 0
	s.tap = 0
	s.feed = rngLen - rngTap
}

// Int63 returns a non-negative pseudo-random 63-bit integer. It repeats
// Uint64's dispatch instead of calling it: Uint64 is too large to inline,
// and the extra call would cost every steady-state draw.
func (s *lazySource) Int63() int64 {
	if s.n < rngLen {
		return int64(s.fresh() & rngMask)
	}
	return int64(s.next() & rngMask)
}

// Uint64 returns the next 64-bit output of the register.
func (s *lazySource) Uint64() uint64 {
	if s.n < rngLen {
		return s.fresh()
	}
	return s.next()
}

// next is math/rand's register step, for draws from rngLen on.
func (s *lazySource) next() uint64 {
	s.advance()
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// fresh is Uint64 for the first rngLen draws after Seed, when the feed entry
// and (before draw rngTap) the tap entry are still unread and are computed
// from the seed on the spot.
func (s *lazySource) fresh() uint64 {
	s.advance()
	tap := s.vec[s.tap]
	if s.n < rngTap {
		tap = cooked[s.tap] ^ lcgEntry(s.x0, s.tap)
	}
	x := (cooked[s.feed] ^ lcgEntry(s.x0, s.feed)) + tap
	s.vec[s.feed] = x
	s.n++
	return uint64(x)
}

// advance moves the tap and feed indices one step down the register.
func (s *lazySource) advance() {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
}
