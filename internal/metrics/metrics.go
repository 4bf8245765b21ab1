// Package metrics provides the live observability layer: a concurrency-safe
// registry of counters, gauges and log-bucketed histograms with Prometheus
// text exposition (see prom.go).
//
// The design centres on two contracts the rest of the repository depends on:
//
//   - Muted runs stay allocation-free. Every handle type (*Counter, *Gauge,
//     *Histogram) treats a nil receiver as a no-op, and a nil *Registry
//     returns nil handles, so instrumented hot paths cost one inlined nil
//     check when no registry is attached — the zero-alloc guarantees of the
//     kernel and network are preserved verbatim.
//
//   - Observation never changes results. Handles only read and write their
//     own atomic cells; they never touch RNGs, event ordering or any state a
//     run computes from. The metrics columns of internal/traffic's
//     TestExecutionLattice enforce this the same way streaming-equivalence
//     and backend-independence are enforced.
//
// All handles are safe for concurrent use: counters and histogram buckets
// are atomic adds, gauges are atomic float stores/CAS loops, so worker pools
// and a scraping HTTP handler can share one registry without locks on the
// hot path. Registry lookups (Counter/Gauge/Histogram) take a read lock and
// are intended for setup code, not per-event code: fetch handles once, then
// increment.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// Kind classifies a metric family for the exposition TYPE line.
type Kind uint8

// Metric family kinds.
const (
	KindCounter Kind = iota
	KindGauge
	// KindSummary is how histograms expose: quantile samples plus _sum and
	// _count, the compact rendering of a log-bucketed histogram.
	KindSummary
)

// String returns the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindSummary:
		return "summary"
	}
	return "untyped"
}

// Counter is a monotonically increasing counter. The nil *Counter is a
// valid muted handle: Inc and Add on it are no-ops.
//
//xchain:nilsafe
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//xchain:hotpath
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
//
//xchain:hotpath
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for the nil handle).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 value that can go up and down (queue depth, liquidity,
// virtual-time watermark). The nil *Gauge is a valid muted handle.
//
//xchain:nilsafe
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
//
//xchain:hotpath
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d (atomically, via CAS).
//
//xchain:hotpath
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
//
//xchain:hotpath
func (g *Gauge) Inc() { g.Add(1) }

// Value returns the current value (0 for the nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the fixed bucket count of a Histogram. With the bucket
// geometry of stats.Histogram (growth stats.HistGrowth from stats.HistMin)
// this covers observations up to ~1e9 ms — twelve decades — after which
// observations saturate into the last bucket. A fixed array keeps Observe
// allocation-free and lock-free.
const histBuckets = 1400

// logHistGrowth caches log(stats.HistGrowth) for the bucket-index formula.
var logHistGrowth = math.Log(stats.HistGrowth)

// Histogram is a concurrency-safe streaming log-bucketed histogram reusing
// the bucket geometry of stats.Histogram: bucket i covers
// [HistMin·g^i, HistMin·g^(i+1)) with g = stats.HistGrowth, so quantile
// estimates carry at most 1% relative error for observations >= stats.HistMin
// (observations below it share an underflow bucket). Unlike stats.Histogram
// it has a fixed memory footprint and atomic cells, so worker goroutines
// observe while a scraper reads. The nil *Histogram is a valid muted handle.
//
//xchain:nilsafe
type Histogram struct {
	counts    [histBuckets]atomic.Uint64
	underflow atomic.Uint64
	n         atomic.Uint64
	sumBits   atomic.Uint64
}

// addFloat atomically adds d to the float64 stored in bits.
//
//xchain:hotpath
func addFloat(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Observe records one observation. Negative values are clamped to zero.
//
//xchain:hotpath
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.n.Add(1)
	addFloat(&h.sumBits, v)
	if v < stats.HistMin {
		h.underflow.Add(1)
		return
	}
	i := int(math.Floor(math.Log(v/stats.HistMin) / logHistGrowth))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.counts[i].Add(1)
}

// Count returns the number of observations (0 for the nil handle).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the exact sum of observations (0 for the nil handle).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-th quantile (0 <= q <= 1) as the geometric
// midpoint of the bucket holding the observation of that rank — within 1%
// relative error of the true order statistic for observations >=
// stats.HistMin; ranks falling in the underflow bucket report 0. Concurrent
// observations make the estimate approximately consistent, which is all a
// live scrape needs.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Floor(q*float64(n-1))) + 1
	cum := h.underflow.Load()
	if rank <= cum {
		return 0
	}
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i].Load()
		if cum >= rank {
			return stats.HistMin * math.Pow(stats.HistGrowth, float64(i)+0.5)
		}
	}
	return stats.HistMin * math.Pow(stats.HistGrowth, histBuckets)
}

// sample is one labelled instance of a metric family.
type sample struct {
	labels string // canonical sorted rendering, "" for the unlabelled sample
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every sample sharing one metric name.
type family struct {
	name, help string
	kind       Kind
	// fn, when set, backs a single-sample func metric (CounterFunc /
	// GaugeFunc) evaluated at snapshot time.
	fn      func() float64
	samples map[string]*sample
}

// Registry is a named collection of metrics. The zero value is not usable;
// call NewRegistry. A nil *Registry is the muted registry: every getter
// returns a nil (no-op) handle, so "no observability attached" needs no
// branches at instrumentation sites.
//
//xchain:nilsafe
type Registry struct {
	mu sync.RWMutex
	// consts holds pre-validated constant label pairs stamped on every
	// sample at snapshot time (e.g. run="r3" on a per-run registry).
	consts []string
	fams   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// NewLabeledRegistry returns an empty registry whose every sample carries
// the given constant label pairs (key, value, key, value, ...); the
// multi-run server uses run="<id>" so one scrape distinguishes runs.
func NewLabeledRegistry(labelPairs ...string) *Registry {
	r := NewRegistry()
	r.consts = append(r.consts, validatePairs(labelPairs)...)
	return r
}

// validatePairs panics on a malformed label list; instrumentation label
// sets are static, so this is a programming error, not input validation.
func validatePairs(pairs []string) []string {
	if len(pairs)%2 != 0 {
		panic(fmt.Sprintf("metrics: odd label list %q", pairs))
	}
	return pairs
}

// renderLabels renders label pairs sorted by key into the canonical
// `k="v",k2="v2"` form used both as the sample map key and in exposition.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

// getSample returns (creating if needed) the sample of family name with the
// given labels, enforcing kind consistency across callers.
func (r *Registry) getSample(name, help string, kind Kind, labelPairs []string) *sample {
	key := renderLabels(validatePairs(labelPairs))

	r.mu.RLock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || f.fn != nil {
			r.mu.RUnlock()
			panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", name, kind, f.kind))
		}
		if s, ok := f.samples[key]; ok {
			r.mu.RUnlock()
			return s
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, samples: map[string]*sample{}}
		r.fams[name] = f
	}
	if f.kind != kind || f.fn != nil {
		panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", name, kind, f.kind))
	}
	if f.help == "" {
		f.help = help
	}
	s, ok := f.samples[key]
	if !ok {
		s = &sample{labels: key}
		switch kind {
		case KindCounter:
			s.c = &Counter{}
		case KindGauge:
			s.g = &Gauge{}
		case KindSummary:
			s.h = &Histogram{}
		}
		f.samples[key] = s
	}
	return s
}

// Counter returns the counter of the given family and label pairs, creating
// it on first use. Repeated calls with the same name and labels return the
// same handle, so setup code in different packages converges on shared
// counters. Returns nil (a no-op handle) on the nil registry.
func (r *Registry) Counter(name, help string, labelPairs ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.getSample(name, help, KindCounter, labelPairs).c
}

// Gauge returns the gauge of the given family and label pairs, creating it
// on first use. Returns nil (a no-op handle) on the nil registry.
func (r *Registry) Gauge(name, help string, labelPairs ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.getSample(name, help, KindGauge, labelPairs).g
}

// Histogram returns the histogram of the given family and label pairs,
// creating it on first use. Returns nil (a no-op handle) on the nil
// registry.
func (r *Registry) Histogram(name, help string, labelPairs ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.getSample(name, help, KindSummary, labelPairs).h
}

// registerFunc installs a func-backed single-sample family; re-registering
// replaces the function (idempotent setup).
func (r *Registry) registerFunc(name, help string, kind Kind, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.fams[name] = f
	}
	if len(f.samples) > 0 || f.kind != kind {
		panic(fmt.Sprintf("metrics: %s re-registered as a func metric", name))
	}
	f.fn = fn
}

// CounterFunc exposes an externally maintained monotone counter (e.g. the
// process-wide sig cache counters) through the registry; fn is evaluated at
// snapshot time.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.registerFunc(name, help, KindCounter, fn)
}

// GaugeFunc exposes an externally computed level through the registry; fn
// is evaluated at snapshot time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.registerFunc(name, help, KindGauge, fn)
}
