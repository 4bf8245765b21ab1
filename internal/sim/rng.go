package sim

import "math/rand"

// Go's math/rand source is an additive lagged-Fibonacci generator over a
// 607-word register: x[n] = x[n-607] + x[n-273]. Seeding it fills all 607
// words — ~1 800 steps of a Lehmer LCG — which a payment that draws a few
// dozen numbers pays in full (13 µs and 5.4 KB per engine, the single
// largest line of the per-payment profile). The LCG is x -> 48271·x mod
// (2^31-1), so the three LCG values word i is built from are
// 48271^(21+3i)·x0 and its next two successors: any word can be computed
// on its own. lazySource does that on first touch, which makes seeding O(1)
// and a short run pay only for the words it reads, while producing exactly
// math/rand's stream for every seed (TestLazySourceMatchesMathRand and
// FuzzLazySource pin this against the Go version in go.mod).

const (
	rngLen = 607
	rngTap = 273

	lcgA = 48271
	lcgM = 1<<31 - 1
)

var (
	// lcgJump[i] = 48271^(21+3i) mod (2^31-1): the multiplier taking the
	// reduced seed straight to the first LCG value of word i.
	lcgJump [rngLen]uint64
	// rngCooked holds the constants math/rand XORs into the seeded register.
	rngCooked [rngLen]int64
)

// lcgWord returns the LCG part of register word i for reduced seed x0.
func lcgWord(i int, x0 uint64) int64 {
	a := lcgJump[i] * x0 % lcgM
	b := a * lcgA % lcgM
	c := b * lcgA % lcgM
	return int64(a)<<40 ^ int64(b)<<20 ^ int64(c)
}

// reduceSeed maps a seed to the LCG's start value exactly as math/rand does.
func reduceSeed(seed int64) uint64 {
	seed %= lcgM
	if seed < 0 {
		seed += lcgM
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// init builds the jump table and recovers rngCooked from math/rand itself
// rather than vendoring 607 literals: after 607 draws a source seeded with 1
// has overwritten its whole register with its outputs, so running the
// recurrence backwards (x[n-607] = x[n] - x[n-273]) restores the seeded
// register, and XORing out the LCG part leaves the constants.
func init() {
	pow := uint64(1)
	for k := 0; k < 21; k++ {
		pow = pow * lcgA % lcgM
	}
	for i := range lcgJump {
		lcgJump[i] = pow
		pow = pow * lcgA % lcgM * lcgA % lcgM * lcgA % lcgM
	}

	src := rand.NewSource(1).(rand.Source64)
	var vec [rngLen]int64
	tap, feed := 0, rngLen-rngTap
	for n := 0; n < rngLen; n++ {
		tap, feed = prev(tap), prev(feed)
		vec[feed] = int64(src.Uint64())
	}
	for n := 0; n < rngLen; n++ {
		vec[feed] -= vec[tap]
		tap, feed = next(tap), next(feed)
	}
	x0 := reduceSeed(1)
	for i := range rngCooked {
		rngCooked[i] = vec[i] ^ lcgWord(i, x0)
	}
}

func prev(i int) int {
	if i == 0 {
		return rngLen - 1
	}
	return i - 1
}

func next(i int) int {
	if i == rngLen-1 {
		return 0
	}
	return i + 1
}

// lazySource is a rand.Source64 bit-identical to rand.NewSource(seed) whose
// register words are materialised on first touch.
type lazySource struct {
	tap, feed int
	x0        uint64
	have      [(rngLen + 63) / 64]uint64 // bit i set: vec[i] is materialised
	vec       [rngLen]int64
}

// Seed implements rand.Source in O(1): it forgets the register.
func (s *lazySource) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	s.x0 = reduceSeed(seed)
	s.have = [len(s.have)]uint64{}
}

// word returns register word i, materialising it if this seed has not
// touched it yet.
//
//xchain:hotpath
func (s *lazySource) word(i int) int64 {
	if w, bit := i>>6, uint64(1)<<(i&63); s.have[w]&bit == 0 {
		s.have[w] |= bit
		s.vec[i] = lcgWord(i, s.x0) ^ rngCooked[i]
	}
	return s.vec[i]
}

// Uint64 implements rand.Source64.
//
//xchain:hotpath
func (s *lazySource) Uint64() uint64 {
	s.tap, s.feed = prev(s.tap), prev(s.feed)
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
//
//xchain:hotpath
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// NewRand returns a generator whose stream is exactly
// rand.New(rand.NewSource(seed))'s at a fraction of the seeding cost; for
// deterministic code that seeds a generator per unit of work.
func NewRand(seed int64) *rand.Rand {
	s := &lazySource{}
	s.Seed(seed)
	return rand.New(s)
}
