package sim

import "math/rand"

// math/rand's generator is an additive lagged-Fibonacci register of
// rngLen words, x[k] = x[k−rngLen] + x[k−rngTap]. Seeding fills word i
// with three consecutive outputs of the Lehmer LCG x ← 48271·x mod
// (2³¹−1), started 21 steps past the seed, XOR a fixed mask:
//
//	vec[i] = x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ ^ rngCooked[i],  xₙ = x₀·48271ⁿ
//
// Building all 607 words costs 1841 LCG steps and 4.9 KB, which
// dominates a stream that makes a handful of draws. lazySource yields
// the same stream without the table: draw k ≤ rngTap adds two words no
// earlier draw has written, vec[334−k] + vec[607−k], and each word is
// three modular multiplications away from the seed. Draw rngTap+1 is
// the first to read a written word, so only then does the source build
// the register, replay the writes of the draws it has served, and go
// on with math/rand's recurrence.
const (
	rngLen = 607
	rngTap = 273
	lcgMod = 1<<31 - 1
	lcgMul = 48271
)

var (
	// lcgPow[i] = 48271^(21+3i) mod (2³¹−1): the multiplier taking the
	// seed to the first LCG value behind register word i.
	lcgPow = lcgPowers()
	// rngCooked is math/rand's seeding mask, recovered from the linked
	// standard library rather than copied, so the two cannot drift.
	rngCooked = recoverCooked()
)

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&lcgMod + p>>31
	if r >= lcgMod {
		r -= lcgMod
	}
	return r
}

func lcgPowers() (pw [rngLen]uint64) {
	p := uint64(1)
	for n := 0; n < 21; n++ {
		p = mulMod(p, lcgMul)
	}
	step := mulMod(mulMod(lcgMul, lcgMul), lcgMul)
	for i := range pw {
		pw[i] = p
		p = mulMod(p, step)
	}
	return pw
}

// lcgWord returns the LCG part of register word i for the normalised
// seed x0, before the rngCooked mask.
func lcgWord(x0 uint64, i int) int64 {
	a := mulMod(x0, lcgPow[i])
	b := mulMod(a, lcgMul)
	c := mulMod(b, lcgMul)
	return int64(a)<<40 ^ int64(b)<<20 ^ int64(c)
}

// recoverCooked inverts the first rngLen draws of rand.NewSource(1)
// into its initial register, then strips the seed-1 LCG words. Draw k
// writes vec[feed] = vec[feed] + vec[607−k] at feed = (334−k) mod 607;
// for k > rngTap the tap word holds draw k−rngTap, which isolates the
// untouched feed word, and those words in turn isolate the feed words
// of draws k ≤ rngTap.
func recoverCooked() (cooked [rngLen]int64) {
	src := rand.NewSource(1).(rand.Source64)
	var x [rngLen + 1]int64
	for k := 1; k <= rngLen; k++ {
		x[k] = int64(src.Uint64())
	}
	var orig [rngLen]int64
	for k := rngTap + 1; k <= rngLen; k++ {
		orig[(rngLen-rngTap-k+rngLen)%rngLen] = x[k] - x[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		orig[rngLen-rngTap-k] = x[k] - orig[rngLen-k]
	}
	for i := range cooked {
		cooked[i] = orig[i] ^ lcgWord(1, i)
	}
	return cooked
}

// lazySource is a rand.Source64 whose stream is bit-identical to
// rand.NewSource(seed) but which builds no register for its first
// rngTap draws.
type lazySource struct {
	x0    uint64 // seed normalised as math/rand's Seed does
	draws int    // draws served before the register exists
	// vec is the register once materialised; tap and feed index it
	// exactly as math/rand's rngSource does.
	vec       *[rngLen]int64
	tap, feed int
}

func newLazySource(seed int64) *lazySource {
	s := new(lazySource)
	s.Seed(seed)
	return s
}

// Seed resets the source to the start of seed's stream.
func (s *lazySource) Seed(seed int64) {
	x := seed % lcgMod
	if x < 0 {
		x += lcgMod
	}
	if x == 0 {
		x = 89482311
	}
	*s = lazySource{x0: uint64(x)}
}

// word returns register word i as seeding leaves it.
func (s *lazySource) word(i int) int64 {
	return lcgWord(s.x0, i) ^ rngCooked[i]
}

// materialise builds the seeded register and replays the writes of the
// rngTap draws already served.
func (s *lazySource) materialise() {
	vec := new([rngLen]int64)
	for i := range vec {
		vec[i] = s.word(i)
	}
	s.vec, s.tap, s.feed = vec, 0, rngLen-rngTap
	for k := 0; k < s.draws; k++ {
		s.step()
	}
}

// step advances the materialised register by one draw.
func (s *lazySource) step() uint64 {
	tap, feed := s.tap-1, s.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	vec := s.vec
	x := vec[feed] + vec[tap]
	vec[feed] = x
	s.tap, s.feed = tap, feed
	return uint64(x)
}

// Uint64 returns the next 64-bit value of the stream. Uint64 and Int63
// each inline step and call out only before materialising, so a
// materialised source costs what math/rand's does per draw.
func (s *lazySource) Uint64() uint64 {
	if s.vec == nil {
		return s.lazyUint64()
	}
	return s.step()
}

// lazyUint64 serves a draw before the register exists: draws up to
// rngTap from the seed alone, the next one by materialising.
func (s *lazySource) lazyUint64() uint64 {
	if s.draws < rngTap {
		s.draws++
		return uint64(s.word(rngLen-rngTap-s.draws) + s.word(rngLen-s.draws))
	}
	s.materialise()
	return s.step()
}

// Int63 returns the next value of the stream with the top bit cleared.
func (s *lazySource) Int63() int64 {
	if s.vec == nil {
		return int64(s.lazyUint64() &^ (1 << 63))
	}
	return int64(s.step() &^ (1 << 63))
}
