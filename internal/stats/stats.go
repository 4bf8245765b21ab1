// Package stats provides the small set of descriptive statistics the
// experiment tables report: mean, standard deviation, min/max, percentiles
// and rates. It works on float64 samples; callers convert simulated times
// with sim.Time.Millis or similar.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates observations.
type Sample struct {
	values []float64
	// sorted caches a sorted copy of values for percentile queries; it is
	// invalidated by Add so repeated Percentile calls (finalize asks for
	// p50/p95/p99 plus two more in String) cost one sort, not five.
	sorted []float64
	// sorts counts how many times the cache was (re)built; white-box tests
	// assert one sort per batch of percentile queries.
	sorts int
}

// New returns an empty sample.
func New() *Sample { return &Sample{} }

// Of returns a sample over the given values.
func Of(values ...float64) *Sample {
	s := New()
	for _, v := range values {
		s.Add(v)
	}
	return s
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = nil
}

// AddInt records one integer observation.
func (s *Sample) AddInt(v int64) { s.Add(float64(v)) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Sum returns the sum of observations.
func (s *Sample) Sum() float64 {
	var sum float64
	for _, v := range s.values {
		sum += v
	}
	return sum
}

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s.values))
}

// Var returns the unbiased sample variance (0 for fewer than 2 samples).
func (s *Sample) Var() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var acc float64
	for _, v := range s.values {
		d := v - m
		acc += d * d
	}
	return acc / float64(n-1)
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 for an empty sample).
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	min := s.values[0]
	for _, v := range s.values[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// Max returns the largest observation (0 for an empty sample).
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	max := s.values[0]
	for _, v := range s.values[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// sortedValues returns the cached sorted copy of the sample, rebuilding it
// only when observations were added since the last percentile query.
func (s *Sample) sortedValues() []float64 {
	if s.sorted == nil {
		s.sorted = append(make([]float64, 0, len(s.values)), s.values...)
		sort.Float64s(s.sorted)
		s.sorts++
	}
	return s.sorted
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	sorted := s.sortedValues()
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// String summarises the sample.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f p50=%.3f p95=%.3f max=%.3f",
		s.N(), s.Mean(), s.StdDev(), s.Min(), s.Median(), s.Percentile(95), s.Max())
}

// Counter tracks successes out of trials, e.g. "Bob paid in 97 of 100 runs".
type Counter struct {
	Hits   int
	Trials int
}

// Observe records one trial.
func (c *Counter) Observe(hit bool) {
	c.Trials++
	if hit {
		c.Hits++
	}
}

// Rate returns the hit rate in [0,1] (0 for no trials).
func (c *Counter) Rate() float64 {
	if c.Trials == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Trials)
}

// Percent returns the hit rate as a percentage.
func (c *Counter) Percent() float64 { return 100 * c.Rate() }

// String renders the counter.
func (c *Counter) String() string {
	return fmt.Sprintf("%d/%d (%.1f%%)", c.Hits, c.Trials, c.Percent())
}

// Histogram bucket geometry. Buckets span [HistMin*g^i, HistMin*g^(i+1))
// with growth g = 1.02, so a bucket's geometric midpoint is within
// sqrt(1.02)-1 < 1% of any value it holds: percentile estimates carry at
// most 1% relative error for observations >= HistMin. Observations below
// HistMin land in a shared underflow bucket represented by the exact
// minimum seen. Memory is O(log(max/min)/log(g)) buckets — about 1400 for
// twelve decades — independent of how many observations are recorded.
const (
	// HistGrowth is the ratio between consecutive bucket bounds.
	HistGrowth = 1.02
	// HistMin is the smallest resolvable observation; values below it share
	// the underflow bucket. One simulated microsecond in milliseconds.
	HistMin = 1e-3
)

// Histogram is a streaming log-bucketed histogram: constant-size summary of
// an unbounded stream of non-negative observations, replacing whole-sample
// retention where approximate percentiles suffice. Mean, Sum, Min, Max and N
// are exact; Percentile is approximate within 1% relative error (see
// HistGrowth). The zero value is ready to use.
type Histogram struct {
	counts    []uint64 // counts[i] covers [HistMin*g^i, HistMin*g^(i+1))
	underflow uint64   // observations < HistMin
	n         uint64
	sum       float64
	min       float64
	max       float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketOf maps an observation >= HistMin to its bucket index.
func bucketOf(v float64) int {
	return int(math.Floor(math.Log(v/HistMin) / math.Log(HistGrowth)))
}

// Add records one observation. Negative values are clamped to zero.
func (h *Histogram) Add(v float64) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	if v < HistMin {
		h.underflow++
		return
	}
	i := bucketOf(v)
	for len(h.counts) <= i {
		h.counts = append(h.counts, 0)
	}
	h.counts[i]++
}

// N returns the number of observations.
func (h *Histogram) N() int { return int(h.n) }

// Sum returns the exact sum of observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the exact mean (0 for an empty histogram).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min returns the exact smallest observation (0 when empty).
func (h *Histogram) Min() float64 { return h.min }

// Max returns the exact largest observation (0 when empty).
func (h *Histogram) Max() float64 { return h.max }

// Percentile returns an estimate of the p-th percentile (0 <= p <= 100): the
// geometric midpoint of the bucket holding the observation of that rank,
// clamped to the exact [Min, Max] envelope. The estimate is within 1%
// relative error of the true order statistic for observations >= HistMin;
// ranks falling in the underflow bucket report the exact minimum.
func (h *Histogram) Percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	// Rank of the order statistic targeted, 1-based, matching
	// Sample.Percentile's closest-rank convention at bucket granularity.
	rank := uint64(math.Floor(p/100*float64(h.n-1))) + 1
	if rank <= h.underflow {
		return h.min
	}
	cum := h.underflow
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			mid := HistMin * math.Pow(HistGrowth, float64(i)+0.5)
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max
}

// String summarises the histogram.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.3f min=%.3f p50~%.3f p95~%.3f max=%.3f",
		h.N(), h.Mean(), h.Min(), h.Percentile(50), h.Percentile(95), h.Max())
}
