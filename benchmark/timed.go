package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/sig"
)

// sample is one batch's host cost per operation.
type sample struct {
	Us     float64 // wall µs
	CPUUs  float64 // process CPU µs (user + sys, every thread)
	Allocs float64
	Bytes  float64
}

// measure runs one batch and returns its checked result with its host cost
// per attempted operation.
func measure(w workload, seed int64, ops int, v variant) (batch, sample) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := processCPU()
	t0 := time.Now()
	b := w.run(seed, ops, v)
	wall := time.Since(t0)
	cpu := processCPU() - c0
	runtime.ReadMemStats(&m1)
	n := float64(max(b.Ops, 1))
	return b, sample{
		Us:     float64(wall.Nanoseconds()) / 1e3 / n,
		CPUUs:  float64(cpu.Nanoseconds()) / 1e3 / n,
		Allocs: float64(m1.Mallocs-m0.Mallocs) / n,
		Bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / n,
	}
}

// processCPU is the CPU time (user + sys) of every thread of the process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF and a valid pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident set (clear_refs value 5, Linux 4.0 and later).
func resetPeakRSS() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB is the process's resident-set high-water mark since the last
// reset: VmHWM of /proc/self/status. Not ru_maxrss, which survives exec and
// so never reads below the resident set of whatever started the run (under
// `go run`, the go command's ~22 MB).
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// summary is the distribution of one metric over a run's batches.
type summary struct {
	N                     int
	Min, Q1, Med, Q3, Max float64
}

// summarize sorts a copy of vals; quartiles interpolate linearly. The
// harness keeps its own statistics (and its own splitmix64) rather than
// importing internal/stats: what judges a change must not be movable by it.
func summarize(vals []float64) summary {
	if len(vals) == 0 {
		return summary{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		lo := int(math.Floor(x))
		hi := min(lo+1, len(s)-1)
		return s[lo] + (x-float64(lo))*(s[hi]-s[lo])
	}
	return summary{N: len(s), Min: s[0], Q1: at(0.25), Med: at(0.5), Q3: at(0.75), Max: s[len(s)-1]}
}

func median(vals []float64) float64 { return summarize(vals).Med }

// result is the driver-facing outcome of one run: the last line of standard
// output is its JSON rendering.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// failures lists the distinct oracle failures seen (diagnostics only).
	failures []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// count folds one batch into the attempted/failed tally.
func (r *result) count(b batch, what string) {
	r.Attempted += b.Ops
	if b.Failure != "" {
		r.Failed += b.Ops
		r.fail(what + ": " + b.Failure)
	}
}

// fail records a correctness failure that is not tied to operations (for
// instance two runs of one seed disagreeing).
func (r *result) fail(msg string) {
	r.Correct = false
	if len(r.failures) < 8 {
		r.failures = append(r.failures, msg)
	}
}

// warmDiv sizes the set-up's warm-up batch relative to a timed batch.
const warmDiv = 2

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

// setUp does what a fresh process pays before its first timed batch: build
// the inputs and run one warm-up batch from a cold key cache (key
// generation, heap growth, lazy initialisation). It returns the set-up's
// wall time in seconds.
func setUp(w workload, seed int64, ops int) (batch, float64) {
	sig.ResetKeyCache()
	t0 := time.Now()
	b := w.run(w.batchSeed(seed, -1), max(ops/warmDiv, 1), variant{})
	return b, time.Since(t0).Seconds()
}

// setUpAll sets up setupReps times and returns the durations in seconds at
// reference host speed. Every set-up uses the same seed, so the digests
// must agree: the determinism contract, checked where it costs nothing
// extra.
func setUpAll(w workload, seed int64, ops int, r *result) []float64 {
	var secs []float64
	first := ""
	before := refKernel()
	for i := 0; i < setupReps; i++ {
		b, d := setUp(w, seed, ops)
		after := refKernel()
		r.count(b, "warm-up")
		secs = append(secs, atReferenceSpeed(d, before, after))
		before = after
		if i == 0 {
			first = b.Digest
		} else if b.Digest != first {
			r.fail("two runs of the warm-up seed disagree: simulated statistics are not deterministic")
		}
	}
	return secs
}

// runTimed is the --trace 0 run: set-ups, then untraced batches (no
// registry, no spans, no kept payments) until seconds have passed. Every
// end-to-end metric is the median over the batches; the distribution goes
// to log.
func runTimed(w workload, seed int64, seconds float64, ops int, log io.Writer) result {
	r := result{Correct: true, Metrics: map[string]metric{}}
	setups := setUpAll(w, seed, ops, &r)

	// The reference kernel runs before the first batch and after every
	// batch, so each batch is calibrated by the two runs that bracket it.
	//
	// Peak RSS is taken per batch, the high-water mark being reset before
	// each: with heaps this small (~10 MB resident) one late GC cycle adds
	// 40 % to a process-lifetime peak in about one run of ten, and the median
	// over batches does not see it.
	var us, wall, allocs, bytes, rss []float64
	start := time.Now()
	before := refKernel()
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds; i++ {
		if err := resetPeakRSS(); err != nil && i == 0 {
			fmt.Fprintf(log, "  peak RSS is the process's so far, not each batch's: %v\n", err)
		}
		b, s := measure(w, w.batchSeed(seed, i), ops, variant{})
		peak, err := peakRSSMB()
		if err != nil {
			r.fail("peak RSS: " + err.Error())
		}
		rss = append(rss, peak)
		after := refKernel()
		wall = append(wall, s.Us)
		us = append(us, atReferenceSpeed(s.Us, before, after))
		before = after
		r.count(b, fmt.Sprintf("batch %d", i))
		allocs = append(allocs, s.Allocs)
		bytes = append(bytes, s.Bytes)
	}

	fmt.Fprintf(log, "%s seed=%d: %d batches of %d operations, %d attempted, %d failed\n",
		w.Name, seed, len(us), ops, r.Attempted, r.Failed)
	fmt.Fprintf(log, "  reference kernel at %.2fx its nominal time; wall as measured %.4f us per operation\n",
		ratio(median(wall), median(us)), median(wall))
	measured := map[string][]float64{
		"host_us_per_payment": us,
		"allocs_per_payment":  allocs,
		"bytes_per_payment":   bytes,
		"peak_rss_mb":         rss,
		"setup_s":             setups,
	}
	for _, def := range endToEnd {
		s := summarize(measured[def.Name])
		r.Metrics[def.Name] = metric{Value: s.Med, Unit: def.Unit}
		fmt.Fprintf(log, "  %-22s %14.4f %-5s (%s is better, bound %.0f%%)  n=%d min %.4f q1 %.4f q3 %.4f max %.4f\n",
			def.Name, s.Med, def.Unit, def.Better, 100*def.Bound, s.N, s.Min, s.Q1, s.Q3, s.Max)
	}
	for _, f := range r.failures {
		fmt.Fprintf(log, "  FAILED %s\n", f)
	}
	return r
}
