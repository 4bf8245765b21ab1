package sim

import (
	"math"
	"math/rand"
)

// Go's math/rand source is an additive lagged-Fibonacci generator over a
// 607-word register: x[n] = x[n-607] + x[n-273]. Seeding it fills all 607
// words, ~1 800 steps of a Lehmer LCG, which a payment that draws a few
// dozen numbers would pay in full. The LCG is x -> 48271·x mod (2^31-1), so
// the three LCG values seeded word i is built from are 48271^(21+3i)·x0 and
// its next two successors: any word can be computed on its own, from a
// per-word table of those three multipliers. lazySource makes seeding O(1)
// and computes only what the stream reads, in blocks of draws so that the
// products of successive draws pipeline, while producing exactly
// math/rand's stream for every seed (TestLazySourceMatchesMathRand and
// FuzzLazySource pin this against the Go version in go.mod).
//
// Which words a draw reads follows from the draw count alone. Draw k < 273
// adds two seeded words no draw has written (feed 333-k, tap 606-k). Draw
// k < 607 adds a seeded word at feed to a tap word an earlier draw wrote.
// From draw 607 on every word has been written and the register runs as
// math/rand's does.

const (
	rngLen = 607
	rngTap = 273

	lcgA = 48271
	lcgM = 1<<31 - 1

	// rngBlock is how many draws one fill computes ahead: enough
	// independent products (six a fresh draw) to keep the multiplier
	// busy, and few enough that a seed drawn from once (a fuzz seed whose
	// family is filtered out) pays for little it never reads. 8, 16 and
	// 32 read alike on an n=2 payment's 32 draws; 64 was slower.
	rngBlock = 16
)

// seedWord holds what seeded register word i is made of: the multipliers
// taking the reduced seed to its three LCG values, and the constant
// math/rand XORs into it.
type seedWord struct {
	a, b, c uint64
	cooked  int64
}

var seedWords [rngLen]seedWord

// modM reduces p < 2^62 mod 2^31-1 by two Mersenne folds. Both factors of
// every product lie in [1, lcgM), so the residue is never 0 and the folds
// land exactly in [1, lcgM).
func modM(p uint64) uint64 {
	p = p&lcgM + p>>31
	return p&lcgM + p>>31
}

// word returns the seeded register word for reduced seed x0.
func (w *seedWord) word(x0 uint64) int64 {
	return int64(modM(w.a*x0)<<40^modM(w.b*x0)<<20^modM(w.c*x0)) ^ w.cooked
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

// tapOf returns the tap index that pairs with feed index i.
func tapOf(i int) int {
	if i < rngLen-rngTap {
		return i + rngTap
	}
	return i - (rngLen - rngTap)
}

// init builds the multiplier table and recovers the cooked constants from
// math/rand itself rather than vendoring 607 literals: after 607 draws a
// source seeded with 1 has overwritten its whole register with its outputs,
// so running the recurrence backwards (x[n-607] = x[n] - x[n-273]) restores
// the seeded register, and XORing out the LCG part leaves the constants.
func init() {
	pow := uint64(1)
	for k := 0; k < 21; k++ {
		pow = pow * lcgA % lcgM
	}
	for i := range seedWords {
		w := &seedWords[i]
		w.a = pow
		w.b = w.a * lcgA % lcgM
		w.c = w.b * lcgA % lcgM
		pow = w.c * lcgA % lcgM
	}

	src := rand.NewSource(1).(rand.Source64)
	feedOf := func(n int) int { return (2*rngLen - rngTap - 1 - n) % rngLen }
	var vec [rngLen]int64
	for n := 0; n < rngLen; n++ {
		vec[feedOf(n)] = int64(src.Uint64())
	}
	for n := rngLen - 1; n >= 0; n-- {
		vec[feedOf(n)] -= vec[tapOf(feedOf(n))]
	}
	for i := range seedWords {
		seedWords[i].cooked = vec[i] ^ seedWords[i].word(1)
	}
}

// lazySource is a rand.Source64 bit-identical to rand.NewSource(seed) that
// computes its draws a block at a time and writes each where math/rand's
// recurrence would.
type lazySource struct {
	feed  int    // math/rand's feed index; the tap is tapOf(feed)
	ready int    // vec[ready:feed] holds the next draws, highest first
	drawn int    // draws computed since Seed
	x0    uint64 // reduced seed
	vec   [rngLen]int64
}

// Seed implements rand.Source in O(1): it forgets the register.
func (s *lazySource) Seed(seed int64) {
	s.feed, s.ready, s.drawn = rngLen-rngTap, rngLen-rngTap, 0
	s.x0 = reduceSeed(seed)
}

// fill computes the next block of draws below feed, never across the
// register's wrap or from one phase of the stream into the next.
func (s *lazySource) fill() {
	if s.feed == 0 {
		s.feed = rngLen
	}
	hi, x0 := s.feed, s.x0
	n := min(rngBlock, hi)
	switch {
	case s.drawn < rngTap:
		n = min(n, rngTap-s.drawn)
		out := s.vec[hi-n : hi]
		feed, tap := seedWords[hi-n:hi], seedWords[hi-n+rngTap:hi+rngTap]
		for j := range out {
			out[j] = feed[j].word(x0) + tap[j].word(x0)
		}
	case s.drawn < rngLen:
		n = min(n, rngLen-s.drawn)
		for i := hi - n; i < hi; i++ {
			s.vec[i] = seedWords[i].word(x0) + s.vec[tapOf(i)]
		}
	default:
		for i := hi - n; i < hi; i++ {
			s.vec[i] += s.vec[tapOf(i)]
		}
	}
	s.drawn += n
	s.ready = hi - n
}

// Uint64 implements rand.Source64.
//
//xchain:hotpath
func (s *lazySource) Uint64() uint64 {
	if s.feed == s.ready {
		s.fill()
	}
	s.feed--
	return uint64(s.vec[s.feed])
}

// Int63 implements rand.Source.
//
//xchain:hotpath
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & math.MaxInt64) }

// Rand is the deterministic packages' generator: exactly
// rand.New(rand.NewSource(seed))'s stream at a fraction of the seeding
// cost. Int63n and Float64, the per-event draws, call the source directly;
// every other method is math/rand's over the same source.
type Rand struct {
	*rand.Rand
	src lazySource
}

// NewRand returns a generator seeded with seed.
func NewRand(seed int64) *Rand {
	r := &Rand{}
	r.src.Seed(seed)
	r.Rand = rand.New(&r.src)
	return r
}

// Int63n is math/rand's Int63n, which computes its rejection threshold
// only for a draw that could exceed it.
//
//xchain:hotpath
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	v := int64(r.src.Uint64() & math.MaxInt64)
	if v > math.MaxInt64-n {
		limit := int64(math.MaxInt64 - (1<<63)%uint64(n))
		for v > limit {
			v = int64(r.src.Uint64() & math.MaxInt64)
		}
	}
	return v % n
}

// Float64 is math/rand's Float64.
//
//xchain:hotpath
func (r *Rand) Float64() float64 {
	for {
		if f := float64(r.src.Uint64()&math.MaxInt64) / (1 << 63); f != 1 {
			return f
		}
	}
}
