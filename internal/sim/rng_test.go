package sim

import (
	"math"
	"math/rand"
	"testing"
)

// drawer is the draw surface *Rand shares with *rand.Rand: its own Int63n
// and Float64, and the methods it promotes from math/rand.
type drawer interface {
	Int63n(n int64) int64
	Float64() float64
	Uint64() uint64
	Int63() int64
	Intn(n int) int
}

// int63nBounds are Int63n bounds that reach every branch: 1, powers of two,
// and bounds within 2^10 of MaxInt64 and of 2^62, whose draws run the
// rejection threshold (and, near 2^62, reject about half the time).
var int63nBounds = []int64{
	1, 2, 1 << 10, 1 << 40, 1 << 62,
	math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 - 1023, math.MaxInt64 - 1024,
	1<<62 + 1, 1<<62 + 1023, 1<<62 - 1, 1<<62 - 1024,
}

// drawMixed makes n draws through every method of drawer, in turn, and
// returns them.
func drawMixed(r drawer, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		switch i % 6 {
		case 0:
			out[i] = uint64(r.Int63n(int64(i)*7919 + 1))
		case 1:
			out[i] = math.Float64bits(r.Float64())
		case 2:
			out[i] = r.Uint64()
		case 3:
			out[i] = uint64(r.Intn(i + 1))
		case 4:
			out[i] = uint64(r.Int63n(int63nBounds[(i/6)%len(int63nBounds)]))
		default:
			out[i] = uint64(r.Int63())
		}
	}
	return out
}

func sameStream(t *testing.T, seed int64, got *Rand, want *rand.Rand, n int) {
	t.Helper()
	g, w := drawMixed(got, n), drawMixed(want, n)
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("seed %d: draw %d is %#x, math/rand gives %#x", seed, i, g[i], w[i])
		}
	}
}

// edgeSeeds are the seeds whose reduction mod 2^31-1 is special: zero (which
// math/rand replaces), multiples of the modulus of either sign, and the
// int64 extremes.
func edgeSeeds() []int64 {
	const m = 1<<31 - 1
	return []int64{0, 1, -1, m, -m, 2 * m, -2 * m, m + 1, m - 1, 1 << 31, 12345 * m, -12345 * m,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, 89482311}
}

// TestLazySourceMatchesMathRand pins NewRand's stream to math/rand's, draw
// for draw: 3 000 mixed draws cross the 607-word register almost five times,
// so the fresh blocks, the draws that read one seeded word, the feed/tap
// wrap and the fully written steady state are all compared.
func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := edgeSeeds()
	for s := int64(-150); s < 150; s++ {
		seeds = append(seeds, s*2654435761)
	}
	for _, seed := range seeds {
		sameStream(t, seed, NewRand(seed), rand.New(rand.NewSource(seed)), 3000)
	}
}

// TestLazySourceReseed reseeds one generator after partial use — at and
// around each block edge, each phase of the stream and each register wrap —
// and expects the new seed's stream from its first draw.
func TestLazySourceReseed(t *testing.T) {
	r := NewRand(1)
	used := []int{0, 1, rngBlock - 1, rngBlock, rngBlock + 1, 40, 272, 273, 274, 334,
		606, 607, 608, 1213, 1214, 1215, 2000}
	for i, u := range used {
		for k := 0; k < u; k++ {
			r.Uint64()
		}
		seed := int64(i)*1_000_003 - 5
		r.Seed(seed)
		sameStream(t, seed, r, rand.New(rand.NewSource(seed)), 700)
	}
}

// TestInt63nPanicsAsMathRand: a bound of zero or less panics, as math/rand's
// does.
func TestInt63nPanicsAsMathRand(t *testing.T) {
	for _, n := range []int64{0, -1, math.MinInt64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Int63n(%d) did not panic", n)
				}
			}()
			NewRand(1).Int63n(n)
		}()
	}
}

// TestInt63nThresholdIsExact draws exactly at Int63n's rejection threshold,
// which math/rand accepts: a first draw v ≥ 2^62 is the threshold of bound
// v+1, since 2^63 mod (v+1) is MaxInt64-v.
func TestInt63nThresholdIsExact(t *testing.T) {
	hit := 0
	for _, seed := range edgeSeeds() {
		v := rand.New(rand.NewSource(seed)).Int63()
		if v < 1<<62 || v == math.MaxInt64 {
			continue
		}
		hit++
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		if g, w := got.Int63n(v+1), want.Int63n(v+1); g != w || g != v {
			t.Errorf("seed %d: Int63n(%d) = %d, math/rand gives %d", seed, v+1, g, w)
		}
		sameStream(t, seed, got, want, 10)
	}
	if hit == 0 {
		t.Fatal("no seed's first draw reaches 2^62")
	}
}

func TestLazySourceSeedAllocatesNothing(t *testing.T) {
	r := NewRand(1)
	var sink int64
	var fsink float64
	if n := testing.AllocsPerRun(100, func() {
		r.Seed(sink)
		sink += r.Int63n(1000)
		fsink += r.Float64()
	}); n != 0 {
		t.Fatalf("Seed + draws allocate %v times, want 0", n)
	}
}

// FuzzLazySource compares a generator that is used, reseeded and used again
// with math/rand on arbitrary seeds and draw counts.
func FuzzLazySource(f *testing.F) {
	for _, seed := range edgeSeeds() {
		for _, n := range []uint16{0, 1, rngBlock - 1, rngBlock, rngBlock + 1, 272, 273, 274,
			606, 607, 608, 1213, 1214, 1215} {
			f.Add(seed, seed^0x5eed, n)
		}
	}
	f.Fuzz(func(t *testing.T, first, second int64, used uint16) {
		n := int(used) % 2048
		r := NewRand(first)
		sameStream(t, first, r, rand.New(rand.NewSource(first)), n)
		r.Seed(second)
		sameStream(t, second, r, rand.New(rand.NewSource(second)), n+50)
	})
}

// BenchmarkSeedAnd40Draws times an engine's per-payment shape: a reseed and
// the 32 Int63n draws an honest n=2 payment makes (the name is kept from
// when it drew 40 Int63s).
func BenchmarkSeedAnd40Draws(b *testing.B) {
	const draws, bound = 32, 1000
	b.Run("lazy", func(b *testing.B) {
		b.ReportAllocs()
		r := NewRand(1)
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			for k := 0; k < draws; k++ {
				r.Int63n(bound)
			}
		}
	})
	b.Run("mathrand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := rand.New(rand.NewSource(int64(i)))
			for k := 0; k < draws; k++ {
				r.Int63n(bound)
			}
		}
	})
}
