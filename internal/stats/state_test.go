package stats

import (
	"math/rand"
	"testing"
)

// TestHistogramStateRoundTrip splits one observation stream at an arbitrary
// point: the prefix goes into a histogram that is captured and restored, the
// suffix is added to both the restored copy and an uninterrupted control, and
// every summary statistic must match exactly.
func TestHistogramStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	obs := make([]float64, 5000)
	for i := range obs {
		obs[i] = rng.Float64() * 2500 // spans underflow (<1e-3) through ~2.5k
		if i%17 == 0 {
			obs[i] /= 1e7
		}
	}
	const cut = 1234

	control := NewHistogram()
	for _, v := range obs {
		control.Add(v)
	}

	first := NewHistogram()
	for _, v := range obs[:cut] {
		first.Add(v)
	}
	st := first.State()
	first.Add(1e9) // mutate the source: the captured state must be independent
	if st.N != cut {
		t.Fatalf("state N = %d, want %d", st.N, cut)
	}

	resumed := NewHistogram()
	resumed.Restore(st)
	for _, v := range obs[cut:] {
		resumed.Add(v)
	}

	if got, want := resumed.String(), control.String(); got != want {
		t.Fatalf("restored summary %q, want %q", got, want)
	}
	if resumed.Sum() != control.Sum() || resumed.N() != control.N() {
		t.Fatalf("restored sum/n (%v, %d) != control (%v, %d)",
			resumed.Sum(), resumed.N(), control.Sum(), control.N())
	}
	for _, p := range []float64{0, 25, 50, 90, 95, 99, 100} {
		if resumed.Percentile(p) != control.Percentile(p) {
			t.Fatalf("p%v: restored %v != control %v", p, resumed.Percentile(p), control.Percentile(p))
		}
	}
}

// TestHistogramRestoreOverwrites pins that Restore fully replaces prior
// contents, including a longer pre-existing bucket array.
func TestHistogramRestoreOverwrites(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{1, 10, 100, 1000, 10000} {
		h.Add(v)
	}
	empty := NewHistogram()
	h.Restore(empty.State())
	if h.N() != 0 || h.Sum() != 0 || h.Percentile(50) != 0 {
		t.Fatalf("restore of empty state left residue: %s", h)
	}
}
