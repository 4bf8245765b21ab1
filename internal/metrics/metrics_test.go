package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/stats"
)

// A nil registry hands out nil handles and every operation on them is a
// no-op: "no observability attached" needs no branches at call sites.
func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("c_total", "help")
	g := r.Gauge("g", "help")
	h := r.Histogram("h_ms", "help")
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry returned live handles: %v %v %v", c, g, h)
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	g.Inc()
	h.Observe(1.5)
	r.CounterFunc("f_total", "help", func() float64 { return 1 })
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("nil handles reported nonzero values")
	}
	if snap := r.Snapshot(); snap != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", snap)
	}
}

// Repeated lookups with the same name and labels return the same handle, so
// instrumentation in different packages converges on shared cells.
func TestRegistryHandleIdentity(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "help")
	c2 := r.Counter("x_total", "other help ignored")
	if c1 != c2 {
		t.Fatalf("same name returned distinct counters")
	}
	l1 := r.Counter("x_total", "help", "shard", "a")
	l2 := r.Counter("x_total", "help", "shard", "a")
	l3 := r.Counter("x_total", "help", "shard", "b")
	if l1 != l2 || l1 == l3 || l1 == c1 {
		t.Fatalf("label sets not keyed correctly")
	}
	// Label order does not matter: pairs are canonicalised by key.
	m1 := r.Gauge("y", "help", "a", "1", "b", "2")
	m2 := r.Gauge("y", "help", "b", "2", "a", "1")
	if m1 != m2 {
		t.Fatalf("label order produced distinct gauges")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "help")
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("z_total", "help")
}

// Sixteen goroutines hammering shared counters, gauges and histograms must
// be race-clean (run with -race in CI) and lose no counter increments.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Handles fetched inside the goroutine: lookup is also concurrent.
			c := r.Counter("shared_total", "help")
			g := r.Gauge("shared_gauge", "help")
			h := r.Histogram("shared_ms", "help")
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j%100) + 0.5)
				if j%64 == 0 {
					_ = r.Snapshot() // concurrent scrapes must be safe too
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total", "help").Value(); got != goroutines*perG {
		t.Fatalf("counter lost increments: got %d, want %d", got, goroutines*perG)
	}
	if got := r.Gauge("shared_gauge", "help").Value(); got != goroutines*perG {
		t.Fatalf("gauge lost adds: got %v, want %d", got, goroutines*perG)
	}
	if got := r.Histogram("shared_ms", "help").Count(); got != goroutines*perG {
		t.Fatalf("histogram lost observations: got %d, want %d", got, goroutines*perG)
	}
}

// The muted AND the live hot paths are allocation-free: a counter
// increment, a gauge update and a histogram observation never heap-allocate,
// whether or not a registry is attached.
func TestHotPathAllocFree(t *testing.T) {
	r := NewRegistry()
	live := r.Counter("a_total", "help")
	liveG := r.Gauge("g", "help")
	liveH := r.Histogram("h_ms", "help")
	var muted *Counter
	var mutedG *Gauge
	var mutedH *Histogram

	cases := []struct {
		name string
		fn   func()
	}{
		{"muted counter inc", func() { muted.Inc() }},
		{"live counter inc", func() { live.Inc() }},
		{"muted gauge add", func() { mutedG.Add(2) }},
		{"live gauge add", func() { liveG.Add(2) }},
		{"muted histogram observe", func() { mutedH.Observe(3.7) }},
		{"live histogram observe", func() { liveH.Observe(3.7) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per op, want 0", tc.name, allocs)
		}
	}
}

// Histogram quantiles agree with stats.Histogram percentiles: the two share
// bucket geometry, so on the same observations the estimates must coincide
// for in-range ranks.
func TestHistogramQuantileMatchesStats(t *testing.T) {
	h := &Histogram{}
	ref := stats.NewHistogram()
	for i := 1; i <= 10000; i++ {
		v := float64(i) * 0.37
		h.Observe(v)
		ref.Add(v)
	}
	for _, p := range []float64{10, 50, 90, 99} {
		got := h.Quantile(p / 100)
		want := ref.Percentile(p)
		// stats clamps to the exact min/max envelope; the metrics histogram
		// reports raw bucket midpoints. Both sit in the same bucket, so they
		// differ by at most the bucket width (1% relative error each).
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("p%v: metrics %v vs stats %v", p, got, want)
		}
	}
	if h.Count() != uint64(ref.N()) || math.Abs(h.Sum()-ref.Sum()) > 1e-6 {
		t.Errorf("count/sum mismatch: %d/%v vs %d/%v", h.Count(), h.Sum(), ref.N(), ref.Sum())
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantile != 0")
	}
	h.Observe(-5)    // clamped to 0: lands in the underflow bucket
	h.Observe(0)     // underflow
	h.Observe(1e300) // saturates into the last bucket rather than overflowing
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("q0 = %v, want 0 (underflow rank)", q)
	}
	if q := h.Quantile(1); q <= 0 || math.IsInf(q, 0) || math.IsNaN(q) {
		t.Fatalf("q1 = %v, want a finite positive saturation value", q)
	}
}

// Golden test for the Prometheus text exposition format: a registry with a
// counter family (labelled and unlabelled samples), a gauge, a func-backed
// counter and a histogram renders byte-identically.
func TestWritePromGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("xchain_demo_events_total", "Events observed.").Add(42)
	r.Counter("xchain_demo_locks_total", "Locks by book.", "book", "traffic").Add(7)
	r.Counter("xchain_demo_locks_total", "Locks by book.", "book", "protocol").Add(9)
	r.Gauge("xchain_demo_queue_depth", "Live queue depth.").Set(3)
	r.CounterFunc("xchain_demo_cache_hits_total", "Cache hits.", func() float64 { return 11 })
	h := r.Histogram("xchain_demo_latency_ms", "Latency in ms.")
	for i := 0; i < 100; i++ {
		h.Observe(10)
	}

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	// 10ms lands in bucket floor(log(10/1e-3)/log(1.02)) = 465 whose
	// geometric midpoint is 1e-3 * 1.02^465.5 ≈ 10.0655.
	q := 1e-3 * math.Pow(stats.HistGrowth, 465.5)
	qs := formatValue(q)
	want := strings.Join([]string{
		"# HELP xchain_demo_cache_hits_total Cache hits.",
		"# TYPE xchain_demo_cache_hits_total counter",
		"xchain_demo_cache_hits_total 11",
		"# HELP xchain_demo_events_total Events observed.",
		"# TYPE xchain_demo_events_total counter",
		"xchain_demo_events_total 42",
		"# HELP xchain_demo_latency_ms Latency in ms.",
		"# TYPE xchain_demo_latency_ms summary",
		`xchain_demo_latency_ms{quantile="0.5"} ` + qs,
		`xchain_demo_latency_ms{quantile="0.9"} ` + qs,
		`xchain_demo_latency_ms{quantile="0.95"} ` + qs,
		`xchain_demo_latency_ms{quantile="0.99"} ` + qs,
		"xchain_demo_latency_ms_sum 1000",
		"xchain_demo_latency_ms_count 100",
		"# HELP xchain_demo_locks_total Locks by book.",
		"# TYPE xchain_demo_locks_total counter",
		`xchain_demo_locks_total{book="protocol"} 9`,
		`xchain_demo_locks_total{book="traffic"} 7`,
		"# HELP xchain_demo_queue_depth Live queue depth.",
		"# TYPE xchain_demo_queue_depth gauge",
		"xchain_demo_queue_depth 3",
		"",
	}, "\n")
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", b.String(), want)
	}
}

// Merged exposition: several labelled registries (one per run) plus a base
// registry render as one scrape with families grouped under a single
// HELP/TYPE header and run labels distinguishing samples.
func TestWritePromMerged(t *testing.T) {
	base := NewRegistry()
	base.CounterFunc("xchain_demo_cache_hits_total", "Cache hits.", func() float64 { return 5 })
	r1 := NewLabeledRegistry("run", "r1")
	r1.Counter("xchain_demo_settled_total", "Settled payments.").Add(100)
	r2 := NewLabeledRegistry("run", "r2")
	r2.Counter("xchain_demo_settled_total", "Settled payments.").Add(250)

	var b strings.Builder
	if err := WriteProm(&b, base.Snapshot(), r1.Snapshot(), r2.Snapshot()); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if strings.Count(got, "# TYPE xchain_demo_settled_total counter") != 1 {
		t.Fatalf("family header not merged:\n%s", got)
	}
	for _, line := range []string{
		`xchain_demo_settled_total{run="r1"} 100`,
		`xchain_demo_settled_total{run="r2"} 250`,
		"xchain_demo_cache_hits_total 5",
	} {
		if !strings.Contains(got, line+"\n") {
			t.Fatalf("missing line %q in:\n%s", line, got)
		}
	}
}

// Label values containing quotes, backslashes or newlines are escaped per
// the exposition format.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "h", "path", `a"b\c`+"\n").Inc()
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc_total{path="a\"b\\c\n"} 1`) {
		t.Fatalf("escaping wrong:\n%s", b.String())
	}
}
