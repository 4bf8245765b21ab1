package stats

// Checkpoint support: a Histogram can be captured into a plain serialisable
// value and rebuilt exactly. The capture is loss-free — restore followed by
// the same stream of Add calls produces byte-identical summaries — which is
// what lets the traffic layer prove checkpoint equivalence over its latency
// statistics.

// HistogramState is the serialisable capture of a Histogram. All fields are
// exported for JSON round-tripping; Counts is copied on capture and restore,
// so a state value is independent of the live histogram it came from.
type HistogramState struct {
	Counts    []uint64 `json:"counts,omitempty"`
	Underflow uint64   `json:"underflow,omitempty"`
	N         uint64   `json:"n"`
	Sum       float64  `json:"sum"`
	Min       float64  `json:"min"`
	Max       float64  `json:"max"`
}

// State captures the histogram's full contents.
func (h *Histogram) State() HistogramState {
	return HistogramState{
		Counts:    append([]uint64(nil), h.counts...),
		Underflow: h.underflow,
		N:         h.n,
		Sum:       h.sum,
		Min:       h.min,
		Max:       h.max,
	}
}

// Restore overwrites the histogram with a previously captured state.
func (h *Histogram) Restore(st HistogramState) {
	h.counts = append(h.counts[:0], st.Counts...)
	h.underflow = st.Underflow
	h.n = st.N
	h.sum = st.Sum
	h.min = st.Min
	h.max = st.Max
}
