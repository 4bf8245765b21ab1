package scenariogen

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// BenchmarkFuzzKernel times what one Fuzz worker does per seed, without the
// campaign's ring and fold: a standing generator draws the spec and the
// kernel judges it, muted and under hmac, on one standing pair of worlds. An
// iteration is a fixed block of 2 000 seeds of the repository benchmark's
// clean window, every family but traffic populations (a traffic seed is
// skipped after its first draw, as a filtered campaign skips it). It reports
// ns and allocations per judged scenario; one block runs before the clock
// starts, so the key cache, the worlds and the outcome are warm.
//
//	go test -run '^$' -bench BenchmarkFuzzKernel -cpuprofile cpu.prof ./internal/scenariogen
func BenchmarkFuzzKernel(b *testing.B) {
	const start, seeds = 300_000, 2000
	var (
		ws  worlds
		gen = generator{rng: sim.NewRand(0)}
		out Outcome
	)
	block := func() (judged int) {
		for seed := int64(start); seed < start+seeds; seed++ {
			sh := gen.shape(seed)
			if sh.family == FamTraffic {
				continue
			}
			sp := gen.spec(seed, sh)
			sp.Crypto = "hmac"
			judge(sp, &ws, &out)
			if !out.OK() {
				b.Fatalf("seed %d: %v", seed, out.Violations)
			}
			judged++
		}
		return judged
	}
	block()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	judged := 0
	for range b.N {
		judged += block()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(judged), "ns/scenario")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(judged), "allocs/scenario")
}
