package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sig"
	"repro/internal/traffic"
)

// nsPerOp times fn with a wall-clock budget and returns its mean cost. The
// experiment tables carry these measured numbers (like Go benchmarks, they
// are hardware-dependent; every other cell of the suite stays deterministic
// in the configuration).
func nsPerOp(budget time.Duration, fn func()) float64 {
	fn() // warm-up
	start := time.Now()
	n := 0
	for time.Since(start) < budget {
		for i := 0; i < 16; i++ {
			fn()
		}
		n += 16
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// fmtNs renders a nanosecond figure.
func fmtNs(ns float64) string {
	return fmt.Sprintf("%.0f", ns)
}

// RunE10 measures the authentication layer per backend: the raw microcosts
// of keygen, of Sign (recording a term), of rendering a signature's bytes
// (the backend signing) and of a verification the record cannot answer, the
// cost of re-verifying an artefact the keyring signed itself (an
// issuance-record hit), and an end-to-end streaming traffic run.
// Authentication is a model assumption (see internal/sig), so the experiment
// also asserts that every aggregate of the traffic run — success counts,
// rates, volume, exact latency mean — is identical across backends; only the
// wall-clock column may differ.
func RunE10(cfg Config) *Table {
	t := &Table{
		ID:    "E10",
		Title: "crypto backends: sign/verify microcosts and traffic wall-clock (identical results by construction)",
		Columns: []string{
			"backend", "keygen ns/op", "sign (term) ns/op", "render (backend) ns/op", "verify ns/op", "verify record-hit ns/op",
			"payments", "wall s", "verify miss rate", "bob paid",
		},
	}
	budget := 50 * time.Millisecond
	payments := 2000
	if cfg.Runs >= 10 {
		budget = 500 * time.Millisecond
		payments = 50_000
	}

	payload := []byte("E10 microbenchmark payload: the exact bytes never matter")
	type aggregate struct {
		succeeded, failed, rejected, dropped int
		volume                               int64
		latencyMean                          float64
	}
	var first *aggregate
	identical := true
	for _, name := range sig.BackendNames() {
		noCache := sig.Options{Backend: name, DisableKeyCache: true}
		backend, _ := sig.BackendByName(name)
		keygen := nsPerOp(budget, func() { backend.GenerateKey("bench", "p") })

		// Sign records a term and render is Bytes of a fresh signature; the
		// keyring is Reset every 32 signatures, as a world's is per payment,
		// keeping its key.
		kr := sig.NewKeyringWith(sig.Options{Backend: name}, "bench", []string{"p"})
		signed := 0
		fresh := func() sig.Signature {
			if signed++; signed%32 == 0 {
				kr.Reset("bench", []string{"p"})
			}
			return kr.Sign("p", payload)
		}
		signNs := nsPerOp(budget, func() { fresh() })
		renderNs := nsPerOp(budget, func() { fresh().Bytes() })

		// The signer's own keyring answers from its issuance record; one
		// that keeps none pays the backend.
		signer := sig.NewKeyringWith(noCache, "bench", []string{"p"})
		s := signer.Sign("p", payload)
		raw := sig.NewKeyringWith(sig.Options{Backend: name, DisableKeyCache: true, MemoCapacity: -1}, "bench", []string{"p"})
		verifyNs := nsPerOp(budget, func() { raw.Verify("p", payload, s) })
		hitNs := nsPerOp(budget, func() { signer.Verify("p", payload, s) })

		before := sig.GlobalStats()
		scn := core.NewScenario(2, 42)
		w := traffic.NewWorkload(payments)
		w.Arrival.Rate = 20_000
		start := time.Now()
		res, err := traffic.RunWith(scn, w, traffic.Config{Stream: true, Crypto: name})
		wall := time.Since(start)
		if err != nil {
			t.AddNote("%s traffic run failed: %v", name, err)
			continue
		}
		after := sig.GlobalStats()
		missRate := fmt.Sprintf("%.3f", sig.Stats{
			MemoHits:   after.MemoHits - before.MemoHits,
			MemoMisses: after.MemoMisses - before.MemoMisses,
		}.VerifyMissRate())

		agg := &aggregate{
			succeeded: res.Succeeded, failed: res.Failed, rejected: res.Rejected, dropped: res.Dropped,
			volume: res.VolumeMoved, latencyMean: res.LatencyMeanMs,
		}
		if first == nil {
			first = agg
		} else if *agg != *first {
			identical = false
		}
		t.AddRow(
			name, fmtNs(keygen), fmtNs(signNs), fmtNs(renderNs), fmtNs(verifyNs), fmtNs(hitNs),
			fmt.Sprint(payments), fmt.Sprintf("%.2f", wall.Seconds()),
			missRate, fmt.Sprint(res.Succeeded),
		)
	}
	t.AddNote("aggregates (succeeded/failed/rejected/dropped, volume, exact latency mean) identical across backends: %s", yesNo(identical))
	t.AddNote("a signature is F_SIG's record entry (signer, payload): Sign runs no backend, the bytes are rendered (the render column, which includes the term's Sign) only when something reads them, and re-verifying what the keyring signed since its last Reset is a comparison on every backend; only forged or foreign signatures pay the backend. Both backends sign deterministically and the comparison answers what the backend would, a cost decision that cannot move a verdict")
	t.AddNote("authentication is model-assumed: the backend realises a primitive the theorems take for granted, so verdicts cannot depend on it (enforced by the scenariogen backend-differential oracle)")
	return t
}
