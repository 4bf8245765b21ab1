package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEmptySample(t *testing.T) {
	s := New()
	if s.N() != 0 || s.Mean() != 0 || s.StdDev() != 0 || s.Min() != 0 || s.Max() != 0 || s.Median() != 0 {
		t.Fatal("empty sample must report zeros everywhere")
	}
}

func TestBasicStatistics(t *testing.T) {
	s := Of(2, 4, 4, 4, 5, 5, 7, 9)
	if !almost(s.Mean(), 5) {
		t.Errorf("mean = %v", s.Mean())
	}
	if !almost(s.Var(), 32.0/7.0) {
		t.Errorf("var = %v", s.Var())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
	if s.Sum() != 40 {
		t.Errorf("sum = %v", s.Sum())
	}
	if s.String() == "" {
		t.Error("empty rendering")
	}
}

func TestPercentiles(t *testing.T) {
	s := Of(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	if got := s.Percentile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := s.Percentile(100); got != 10 {
		t.Errorf("p100 = %v", got)
	}
	if got := s.Median(); !almost(got, 5.5) {
		t.Errorf("median = %v", got)
	}
	if got := s.Percentile(25); !almost(got, 3.25) {
		t.Errorf("p25 = %v", got)
	}
}

func TestAddInt(t *testing.T) {
	s := New()
	s.AddInt(3)
	s.AddInt(7)
	if !almost(s.Mean(), 5) {
		t.Errorf("mean = %v", s.Mean())
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	if c.Rate() != 0 {
		t.Error("empty counter rate must be 0")
	}
	c.Observe(true)
	c.Observe(true)
	c.Observe(false)
	c.Observe(true)
	if c.Hits != 3 || c.Trials != 4 {
		t.Errorf("counter %+v", c)
	}
	if !almost(c.Rate(), 0.75) || !almost(c.Percent(), 75) {
		t.Errorf("rate %v percent %v", c.Rate(), c.Percent())
	}
	if c.String() == "" {
		t.Error("empty rendering")
	}
}

// TestPercentileSortCache is the regression test for the quadratic
// aggregation hot spot: finalize-style call patterns (several Percentile
// calls between Adds) must sort the sample exactly once.
func TestPercentileSortCache(t *testing.T) {
	s := New()
	for i := 1000; i > 0; i-- {
		s.Add(float64(i))
	}
	for _, p := range []float64{50, 95, 99, 50, 95} {
		s.Percentile(p)
	}
	if s.sorts != 1 {
		t.Fatalf("5 percentile queries performed %d sorts, want 1", s.sorts)
	}
	// Adding invalidates the cache; the next query re-sorts once.
	s.Add(0.5)
	if got := s.Percentile(0); got != 0.5 {
		t.Fatalf("p0 after invalidation = %v, want 0.5", got)
	}
	s.Median()
	if s.sorts != 2 {
		t.Fatalf("post-invalidation queries performed %d sorts, want 2", s.sorts)
	}
	// And the cached path returns the same values as a fresh sample.
	fresh := Of(append([]float64(nil), s.values...)...)
	for _, p := range []float64{0, 25, 50, 95, 99, 100} {
		if a, b := s.Percentile(p), fresh.Percentile(p); a != b {
			t.Fatalf("cached p%v = %v, fresh = %v", p, a, b)
		}
	}
}

// BenchmarkPercentileFinalize measures the finalize call pattern — three
// percentiles plus the two String re-queries — on a 100k sample. With the
// sort cache this costs one sort per added batch instead of five.
func BenchmarkPercentileFinalize(b *testing.B) {
	values := make([]float64, 100_000)
	for i := range values {
		values[i] = math.Mod(float64(i)*2654435761, 1e6)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := Of(values...)
		for _, p := range []float64{50, 95, 99, 50, 95} {
			s.Percentile(p)
		}
	}
}

// Histogram tests.

func TestHistogramExactAggregates(t *testing.T) {
	h := NewHistogram()
	if h.N() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	s := New()
	for i := 1; i <= 1000; i++ {
		v := float64(i) * 0.37
		h.Add(v)
		s.Add(v)
	}
	if h.N() != s.N() {
		t.Fatalf("n = %d, want %d", h.N(), s.N())
	}
	if !almost(h.Sum(), s.Sum()) || !almost(h.Mean(), s.Mean()) {
		t.Fatalf("mean/sum not exact: %v/%v vs %v/%v", h.Mean(), h.Sum(), s.Mean(), s.Sum())
	}
	if h.Min() != s.Min() || h.Max() != s.Max() {
		t.Fatalf("min/max not exact: %v/%v vs %v/%v", h.Min(), h.Max(), s.Min(), s.Max())
	}
	if h.Percentile(0) != s.Min() || h.Percentile(100) != s.Max() {
		t.Fatal("percentile endpoints must be exact")
	}
	if h.String() == "" {
		t.Error("empty rendering")
	}
}

// TestHistogramPercentileErrorBound checks the documented accuracy claim:
// histogram percentile estimates stay within 1% relative error of the exact
// order statistics, across several distributions and quantiles.
func TestHistogramPercentileErrorBound(t *testing.T) {
	distributions := map[string]func(i int) float64{
		"uniform":     func(i int) float64 { return 1 + math.Mod(float64(i)*2654435761, 1e4) },
		"exponential": func(i int) float64 { return 0.5 + 1000*math.Exp(-float64(i%977)/100) },
		"bimodal": func(i int) float64 {
			if i%2 == 0 {
				return 10 + float64(i%100)
			}
			return 5000 + float64(i%1000)
		},
	}
	for name, gen := range distributions {
		h := NewHistogram()
		var values []float64
		for i := 0; i < 20000; i++ {
			v := gen(i)
			h.Add(v)
			values = append(values, v)
		}
		sort.Float64s(values)
		for _, p := range []float64{1, 10, 25, 50, 75, 90, 95, 99, 99.9} {
			// The documented bound is against the closest-rank order
			// statistic (linear interpolation can land mid-gap between
			// modes, where no summary within 1% of it can exist).
			exact := values[int(math.Floor(p/100*float64(len(values)-1)))]
			est := h.Percentile(p)
			if exact <= 0 {
				continue
			}
			if rel := math.Abs(est-exact) / exact; rel > 0.011 {
				t.Errorf("%s p%v: estimate %v vs exact %v (%.2f%% error)", name, p, est, exact, 100*rel)
			}
		}
	}
}

func TestHistogramUnderflowAndNegative(t *testing.T) {
	h := NewHistogram()
	h.Add(-3) // clamped to 0
	h.Add(0)
	h.Add(0.0005)
	h.Add(5)
	if h.Min() != 0 || h.Max() != 5 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if got := h.Percentile(25); got != 0 {
		t.Fatalf("underflow percentile = %v, want exact min 0", got)
	}
	if got := h.Percentile(100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
}

// TestHistogramConstantMemory checks the histogram's footprint is bounded
// by its bucket geometry, not the observation count.
func TestHistogramConstantMemory(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 500_000; i++ {
		h.Add(1 + math.Mod(float64(i)*97.003, 1e6))
	}
	// Twelve decades at 2% growth is ~1400 buckets; 1e6/HistMin spans nine.
	if len(h.counts) > 1200 {
		t.Fatalf("histogram grew to %d buckets", len(h.counts))
	}
	if h.N() != 500_000 {
		t.Fatalf("n = %d", h.N())
	}
}

// Property-based invariants on the sample statistics.

func TestPropertyMeanWithinBounds(t *testing.T) {
	f := func(values []float64) bool {
		s := New()
		for _, v := range values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Keep magnitudes sane to avoid float overflow in the sum.
			s.Add(math.Mod(v, 1e9))
		}
		if s.N() == 0 {
			return true
		}
		m := s.Mean()
		return m >= s.Min()-1e-6 && m <= s.Max()+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(values []float64, a, b uint8) bool {
		s := New()
		for _, v := range values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Add(math.Mod(v, 1e9))
		}
		if s.N() == 0 {
			return true
		}
		pa := float64(a % 101)
		pb := float64(b % 101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return s.Percentile(pa) <= s.Percentile(pb)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyVarianceNonNegative(t *testing.T) {
	f := func(values []float64) bool {
		s := New()
		for _, v := range values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Add(math.Mod(v, 1e6))
		}
		return s.Var() >= 0 && s.StdDev() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCounterRateBounded(t *testing.T) {
	f := func(hits []bool) bool {
		var c Counter
		for _, h := range hits {
			c.Observe(h)
		}
		return c.Rate() >= 0 && c.Rate() <= 1 && c.Trials == len(hits)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSingleValueSample(t *testing.T) {
	s := Of(42)
	if s.N() != 1 || s.Mean() != 42 || s.Min() != 42 || s.Max() != 42 || s.Sum() != 42 {
		t.Fatalf("single-value aggregates wrong: %s", s)
	}
	if s.Var() != 0 || s.StdDev() != 0 {
		t.Fatal("single value must have zero spread")
	}
	for _, p := range []float64{0, 1, 50, 99, 100} {
		if got := s.Percentile(p); got != 42 {
			t.Errorf("p%v = %v, want 42", p, got)
		}
	}
}

func TestIdenticalValuesSample(t *testing.T) {
	s := Of(7, 7, 7, 7, 7)
	if s.Mean() != 7 || s.Var() != 0 || s.StdDev() != 0 {
		t.Fatalf("identical values must have mean 7 and zero spread: %s", s)
	}
	for _, p := range []float64{0, 25, 50, 75, 100} {
		if got := s.Percentile(p); got != 7 {
			t.Errorf("p%v = %v, want 7", p, got)
		}
	}
}

func TestPercentileOutOfRangeClamped(t *testing.T) {
	s := Of(1, 2, 3)
	if got := s.Percentile(-10); got != 1 {
		t.Errorf("p(-10) = %v, want the minimum", got)
	}
	if got := s.Percentile(250); got != 3 {
		t.Errorf("p(250) = %v, want the maximum", got)
	}
}

func TestEmptyHistogram(t *testing.T) {
	h := NewHistogram()
	if h.N() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Sum() != 0 {
		t.Fatal("empty histogram must report zeros everywhere")
	}
	for _, p := range []float64{0, 50, 100} {
		if got := h.Percentile(p); got != 0 {
			t.Errorf("empty histogram p%v = %v", p, got)
		}
	}
}

func TestSingleValueHistogram(t *testing.T) {
	h := NewHistogram()
	h.Add(42)
	if h.N() != 1 || h.Mean() != 42 || h.Min() != 42 || h.Max() != 42 {
		t.Fatalf("single-value aggregates wrong: %s", h)
	}
	// P0 and P100 are exact (the min/max envelope); interior percentiles
	// are clamped into it, so a single value is reported exactly everywhere.
	for _, p := range []float64{0, 1, 50, 99, 100} {
		if got := h.Percentile(p); got != 42 {
			t.Errorf("p%v = %v, want 42", p, got)
		}
	}
}

func TestIdenticalValuesHistogram(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 1000; i++ {
		h.Add(7)
	}
	if h.N() != 1000 || h.Mean() != 7 || h.Min() != 7 || h.Max() != 7 || h.Sum() != 7000 {
		t.Fatalf("identical-value aggregates wrong: %s", h)
	}
	for _, p := range []float64{0, 25, 50, 75, 100} {
		if got := h.Percentile(p); got != 7 {
			t.Errorf("p%v = %v, want 7 exactly (min/max clamp)", p, got)
		}
	}
}

func TestHistogramPercentile0And100AreExact(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{3.14, 100, 0.5, 9999, 42} {
		h.Add(v)
	}
	if got := h.Percentile(0); got != 0.5 {
		t.Errorf("p0 = %v, want the exact minimum 0.5", got)
	}
	if got := h.Percentile(100); got != 9999 {
		t.Errorf("p100 = %v, want the exact maximum 9999", got)
	}
}
