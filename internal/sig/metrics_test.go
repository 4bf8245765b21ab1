package sig

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// RegisterMetrics exposes the same process-wide counters GlobalStats
// reports, under the canonical names, read live at scrape time.
func TestRegisterMetrics(t *testing.T) {
	RegisterMetrics(nil) // nil registry is a no-op

	r := metrics.NewRegistry()
	RegisterMetrics(r)
	ResetGlobalStats()
	ResetKeyCache()

	kr := NewKeyringWith(Options{Backend: BackendEd25519}, "metrics-seed", []string{"a", "b"})
	msg := []byte("payload")
	s := kr.Sign("a", msg)
	kr.Verify("a", msg, s)
	kr.Verify("a", msg, s)

	st := GlobalStats()
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for name, want := range map[string]uint64{
		MetricKeygenCacheHits:     st.KeygenHits,
		MetricKeygenCacheMisses:   st.KeygenMisses,
		MetricVerifyMemoHits:      st.MemoHits,
		MetricVerifyMemoMisses:    st.MemoMisses,
		MetricVerifyMemoEvictions: st.MemoEvictions,
	} {
		line := name + " " + strconv.FormatUint(want, 10) + "\n"
		if !strings.Contains(got, line) {
			t.Errorf("exposition missing %q:\n%s", line, got)
		}
	}
	if st.MemoHits == 0 || st.KeygenMisses == 0 {
		t.Fatalf("test exercised no cache traffic: %+v", st)
	}
}
