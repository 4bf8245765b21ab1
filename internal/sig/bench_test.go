package sig

import (
	"testing"
)

// Microbenchmarks for the authentication layer, per backend. CI runs them
// with a tiny -benchtime as a smoke test; the repository benchmark's sig.*
// probes (benchmark/probes.go) report the same costs per run.

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

// BenchmarkSigSign measures Sign: recording a term, which runs no backend.
// The keyring is Reset every resetEvery signatures, as a world's is between
// payments, keeping its key.
func BenchmarkSigSign(b *testing.B) {
	benchEachBackend(b, func(b *testing.B, name string) {
		kr := NewKeyringWith(Options{Backend: name}, "bench-seed", []string{"p"})
		payload := []byte("benchmark payload of a realistic artefact size, ~64B...")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%resetEvery == 0 {
				kr.Reset("bench-seed", []string{"p"})
			}
			kr.Sign("p", payload)
		}
	})
}

// BenchmarkSigRender measures Bytes of a fresh signature: the backend
// producing the bytes of a term it was never asked to sign before.
func BenchmarkSigRender(b *testing.B) {
	benchEachBackend(b, func(b *testing.B, name string) {
		kr := NewKeyringWith(Options{Backend: name}, "bench-seed", []string{"p"})
		payload := []byte("benchmark payload of a realistic artefact size, ~64B...")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%resetEvery == 0 {
				kr.Reset("bench-seed", []string{"p"})
			}
			kr.Sign("p", payload).Bytes()
		}
	})
}

// resetEvery is how many signatures the benchmarks make between Resets.
const resetEvery = 32

// BenchmarkSigVerify measures one raw verification (issuance record off): the
// cost of a verification the record cannot answer.
func BenchmarkSigVerify(b *testing.B) {
	benchEachBackend(b, func(b *testing.B, name string) {
		kr := NewKeyringWith(Options{Backend: name, MemoCapacity: -1}, "bench-seed", []string{"p"})
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

// BenchmarkVerifyMemoized measures re-verifying an artefact on the keyring
// that signed it: an issuance-record hit, a few byte comparisons instead of a
// backend operation, on every backend.
func BenchmarkVerifyMemoized(b *testing.B) {
	benchEachBackend(b, func(b *testing.B, name string) {
		kr := NewKeyringWith(Options{Backend: name}, "bench-seed", []string{"p"})
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
