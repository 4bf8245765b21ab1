package sig

import (
	"testing"
)

// Microbenchmarks for the authentication layer, per backend. CI runs them
// with a tiny -benchtime as a smoke test; experiment E10
// (cmd/xchain-bench -run E10) prints the backend comparison.

func benchEachBackend(b *testing.B, fn func(b *testing.B, name string)) {
	for _, name := range BackendNames() {
		b.Run(name, func(b *testing.B) { fn(b, name) })
	}
}

// BenchmarkSigKeygen measures cold key derivation (cache bypassed): the cost
// the process-wide key cache saves per participant per payment.
func BenchmarkSigKeygen(b *testing.B) {
	benchEachBackend(b, func(b *testing.B, name string) {
		backend, _ := BackendByName(name)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			backend.GenerateKey("bench-seed", "participant")
		}
	})
}

// BenchmarkSigKeygenCached measures keyring construction when every key is
// resident in the process-wide cache (the steady state of a traffic run).
func BenchmarkSigKeygenCached(b *testing.B) {
	benchEachBackend(b, func(b *testing.B, name string) {
		ids := []string{"c0", "c1", "c2", "e0", "e1"}
		NewKeyringWith(Options{Backend: name}, "bench-seed", ids) // warm the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			NewKeyringWith(Options{Backend: name}, "bench-seed", ids)
		}
	})
}

// BenchmarkSigSign measures one detached signature.
func BenchmarkSigSign(b *testing.B) {
	benchEachBackend(b, func(b *testing.B, name string) {
		kr := NewKeyringWith(Options{Backend: name, DisableKeyCache: true}, "bench-seed", []string{"p"})
		payload := []byte("benchmark payload of a realistic artefact size, ~64B...")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kr.Sign("p", payload)
		}
	})
}

// BenchmarkSigVerify measures one raw verification (memo disabled): the cost
// every re-verification used to pay before memoization.
func BenchmarkSigVerify(b *testing.B) {
	benchEachBackend(b, func(b *testing.B, name string) {
		kr := NewKeyringWith(Options{Backend: name, DisableKeyCache: true, MemoCapacity: -1}, "bench-seed", []string{"p"})
		payload := []byte("benchmark payload of a realistic artefact size, ~64B...")
		s := kr.Sign("p", payload)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !kr.Verify("p", payload, s) {
				b.Fatal("verification failed")
			}
		}
	})
}

// BenchmarkVerifyMemoized measures re-verifying a known artefact through the
// memo: two SHA-256 hashes and a map hit instead of a backend operation. The
// capacity is explicit because hmac keeps no memo by default — this
// benchmark against BenchmarkSigVerify is the reason.
func BenchmarkVerifyMemoized(b *testing.B) {
	benchEachBackend(b, func(b *testing.B, name string) {
		kr := NewKeyringWith(Options{Backend: name, DisableKeyCache: true, MemoCapacity: 16}, "bench-seed", []string{"p"})
		payload := []byte("benchmark payload of a realistic artefact size, ~64B...")
		s := kr.Sign("p", payload)
		kr.Verify("p", payload, s) // prime the memo
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !kr.Verify("p", payload, s) {
				b.Fatal("verification failed")
			}
		}
	})
}
