package sig

import "repro/internal/metrics"

// Canonical crypto metric names (the sig family of /metrics). The CLI's
// -crypto-stats gate prints the same names, so logs and scrapes always talk
// about the same counters.
const (
	// MetricKeygenCacheHits / Misses count keys read at their first read
	// (a rendering, a verification the record missed), served from /
	// missing the process-wide key cache.
	MetricKeygenCacheHits   = "xchain_sig_keygen_cache_hits_total"
	MetricKeygenCacheMisses = "xchain_sig_keygen_cache_misses_total"
	// MetricVerifyMemoHits / Misses count signature verifications answered
	// from keyrings' recorded terms / paid to the backend. The names date
	// from the verification memo the record replaced.
	MetricVerifyMemoHits   = "xchain_sig_verify_memo_hits_total"
	MetricVerifyMemoMisses = "xchain_sig_verify_memo_misses_total"
	// MetricRendered counts signatures whose bytes a backend produced.
	MetricRendered = "xchain_sig_rendered_total"
)

// RegisterMetrics exposes the process-wide crypto cache counters on r as
// func-backed counters: scrapes sum the same stripes GlobalStats does, with
// no extra bookkeeping on the signing or verification hot paths. Nil
// registries are a no-op.
//
// The counters are process-wide (one key cache, many keyrings), so on a
// multi-run server they appear once on the base registry rather than per
// run.
func RegisterMetrics(r *metrics.Registry) {
	if r == nil {
		return
	}
	r.CounterFunc(MetricKeygenCacheHits, "Key derivations served from the process-wide key cache.",
		func() float64 { return float64(GlobalStats().KeygenHits) })
	r.CounterFunc(MetricKeygenCacheMisses, "Key derivations missing the process-wide key cache.",
		func() float64 { return float64(GlobalStats().KeygenMisses) })
	r.CounterFunc(MetricVerifyMemoHits, "Signature verifications answered from keyrings' recorded terms.",
		func() float64 { return float64(GlobalStats().MemoHits) })
	r.CounterFunc(MetricVerifyMemoMisses, "Signature verifications paid to the signature backend.",
		func() float64 { return float64(GlobalStats().MemoMisses) })
	r.CounterFunc(MetricRendered, "Signatures whose bytes a backend produced because something read them.",
		func() float64 { return float64(GlobalStats().Rendered) })
}
