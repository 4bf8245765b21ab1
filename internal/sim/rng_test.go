package sim

import (
	"math"
	"math/rand"
	"testing"
)

// drawMixed makes n draws through the rand.Rand methods the repository uses
// (plus Uint64, which reads the source's full 64 bits) and returns them.
func drawMixed(r *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		switch i % 4 {
		case 0:
			out[i] = uint64(r.Int63n(int64(i)*7919 + 1))
		case 1:
			out[i] = math.Float64bits(r.Float64())
		case 2:
			out[i] = r.Uint64()
		default:
			out[i] = uint64(r.Intn(i + 1))
		}
	}
	return out
}

func sameStream(t *testing.T, seed int64, got, want *rand.Rand, n int) {
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
// so the lazily materialised words, the feed/tap wrap and the fully
// materialised steady state are all compared.
func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := edgeSeeds()
	for s := int64(-150); s < 150; s++ {
		seeds = append(seeds, s*2654435761)
	}
	for _, seed := range seeds {
		sameStream(t, seed, NewRand(seed), rand.New(rand.NewSource(seed)), 3000)
	}
}

// TestLazySourceReseed reseeds one generator after partial use — before,
// at and after each point where the register wraps — and expects the new
// seed's stream from its first draw.
func TestLazySourceReseed(t *testing.T) {
	r := NewRand(1)
	for i, used := range []int{0, 1, 40, 272, 273, 334, 606, 607, 608, 1213, 1214, 1215, 2000} {
		for k := 0; k < used; k++ {
			r.Uint64()
		}
		seed := int64(i)*1_000_003 - 5
		r.Seed(seed)
		sameStream(t, seed, r, rand.New(rand.NewSource(seed)), 700)
	}
}

func TestLazySourceSeedAllocatesNothing(t *testing.T) {
	r := NewRand(1)
	var sink int64
	if n := testing.AllocsPerRun(100, func() {
		r.Seed(sink)
		sink += r.Int63n(1000)
	}); n != 0 {
		t.Fatalf("Seed + draw allocates %v times, want 0", n)
	}
}

// FuzzLazySource compares a generator that is used, reseeded and used again
// with math/rand on arbitrary seeds and draw counts.
func FuzzLazySource(f *testing.F) {
	for _, seed := range edgeSeeds() {
		for _, n := range []uint16{0, 40, 606, 607, 608, 1213, 1214, 1215} {
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

func BenchmarkSeedAnd40Draws(b *testing.B) {
	b.Run("lazy", func(b *testing.B) {
		b.ReportAllocs()
		r := NewRand(1)
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			for k := 0; k < 40; k++ {
				r.Int63()
			}
		}
	})
	b.Run("mathrand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := rand.New(rand.NewSource(int64(i)))
			for k := 0; k < 40; k++ {
				r.Int63()
			}
		}
	})
}
