package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"testing"

	"repro/internal/scenariogen"
	"repro/internal/traffic"
)

// smallSize runs a workload at 1/100 of its batch size through the same
// code path the driver uses.
func smallSize(w workload) size {
	return size{Ops: max(w.Ops/100, 8), Sample: 24, ProbeScale: 0.002}
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

func emitted(r result) []string {
	var out []string
	for name := range r.Metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsSmall drives every workload through the timed and the traced
// run: the oracles hold, nothing fails, and each run emits exactly the
// catalogue's metric names with the catalogue's units.
func TestWorkloadsSmall(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			sz := smallSize(w)
			check := func(r result, defs []metricDef) {
				t.Helper()
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d: %v", r.Correct, r.Attempted, r.Failed, r.failures)
				}
				if got, want := emitted(r), names(defs); !slices.Equal(got, want) {
					t.Errorf("emitted metrics\n got %v\nwant %v", got, want)
				}
				for _, d := range defs {
					if r.Metrics[d.Name].Unit != d.Unit {
						t.Errorf("%s: unit %q, want %q", d.Name, r.Metrics[d.Name].Unit, d.Unit)
					}
				}
			}

			timed := runTimed(w, 42, 0.001, sz.Ops, io.Discard)
			check(timed, endToEnd)
			for _, d := range endToEnd {
				if timed.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s = %v, want a positive measurement", d.Name, timed.Metrics[d.Name].Value)
				}
			}

			out := filepath.Join(t.TempDir(), "trace.json")
			traced := runTraced(w, 42, sz, out, io.Discard)
			check(traced, perLayer)
			body, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string
					Args struct{ Trace, ID, Parent int }
				}
			}
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatalf("trace file is not JSON: %v", err)
			}
			if len(doc.TraceEvents) == 0 {
				t.Error("trace file holds no spans")
			}
			for _, ev := range doc.TraceEvents {
				if ev.Args.Parent >= ev.Args.ID || ev.Args.Trace == 0 {
					t.Fatalf("span %q: id %d parent %d trace %d", ev.Name, ev.Args.ID, ev.Args.Parent, ev.Args.Trace)
				}
			}
		})
	}
}

// TestSeedMakesInputs: one seed gives the same simulated statistics twice,
// another seed gives others.
func TestSeedMakesInputs(t *testing.T) {
	for _, w := range workloads {
		ops := smallSize(w).Ops
		a, b, c := w.run(w.batchSeed(1, 0), ops, variant{}), w.run(w.batchSeed(1, 0), ops, variant{}), w.run(w.batchSeed(2, 0), ops, variant{})
		if a.Digest == "" || a.Digest != b.Digest {
			t.Errorf("%s: seed 1 ran twice gives digests %q and %q", w.Name, a.Digest, b.Digest)
		}
		if a.Digest == c.Digest {
			t.Errorf("%s: seeds 1 and 2 give the same digest", w.Name)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON: the names the harness emits and the
// ones BENCHMARK.json lists are the same in both directions — the file is
// the catalogue's rendering — and the file keeps to the benchmark contract.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json differs from the catalogue in spec.go/workloads.go; regenerate it with `go run -C benchmark . -write`")
	}

	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(onDisk))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	direction := func(n, unit, better string) {
		t.Helper()
		if !unitRE.MatchString(unit) || (better != "lower" && better != "higher") {
			t.Errorf("%s: unit %q, better %q", n, unit, better)
		}
	}
	if len(doc.Workloads) < 2 || len(doc.Workloads) > 8 || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("%d workloads, run_seconds %d", len(doc.Workloads), doc.RunSeconds)
	}
	for _, w := range doc.Workloads {
		name(w.Name)
		if len([]rune(w.Why)) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len([]rune(w.Why)))
		}
	}
	setup := false
	for _, m := range doc.EndToEnd {
		name(m.Name)
		direction(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range doc.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no end-to-end metric setup_s with unit s, lower is better")
	}
	if len(doc.PerLayer) < 1 || len(doc.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(doc.PerLayer))
	}
	for _, m := range doc.PerLayer {
		name(m.Name)
		direction(m.Name, m.Unit, m.Better)
	}
}

// TestOracleCountsFailures: a forged harness-level failure counts every
// operation of its batch as failed; modelled outcomes do not.
func TestOracleCountsFailures(t *testing.T) {
	good := func() *traffic.Result {
		return &traffic.Result{Total: 100, Succeeded: 60, Failed: 25, Dropped: 10, Rejected: 5}
	}
	if f := trafficFailure(good(), nil, 100, false); f != "" {
		t.Errorf("protocol-failed, dropped and rejected payments are modelled outcomes, got failure %q", f)
	}
	forge := map[string]func(*traffic.Result){
		"AuditErr":         func(r *traffic.Result) { r.AuditErr = errors.New("forged") },
		"CascadeErr":       func(r *traffic.Result) { r.CascadeErr = errors.New("forged") },
		"SafetyViolations": func(r *traffic.Result) { r.SafetyViolations = 1 },
		"PendingLocks":     func(r *traffic.Result) { r.PendingLocks = 1 },
		"Errored":          func(r *traffic.Result) { r.Errored = 1 },
		"short Total":      func(r *traffic.Result) { r.Total = 99 },
	}
	for what, f := range forge {
		res := good()
		f(res)
		failure := trafficFailure(res, nil, 100, false)
		if failure == "" {
			t.Errorf("forged %s passed the oracle", what)
		}
		var r result
		r.Correct = true
		r.count(batch{Ops: 100, Failure: failure}, "forged")
		if r.Failed != 100 || r.Attempted != 100 || r.Correct {
			t.Errorf("forged %s: attempted=%d failed=%d correct=%v, want all 100 failed", what, r.Attempted, r.Failed, r.Correct)
		}
	}
	if trafficFailure(nil, errors.New("boom"), 100, false) == "" {
		t.Error("a RunWith error passed the oracle")
	}
	if trafficFailure(good(), nil, 100, true) == "" {
		t.Error("an open-liquidity honest run with 60/100 successes passed the Theorem-1 liveness oracle")
	}

	clean := &scenariogen.Stats{Runs: 90, Skipped: 10, Violating: 30, Theorem2Count: 7}
	if f := fuzzFailure(clean, 100); f != "" {
		t.Errorf("Theorem-2 rediscoveries and violating-class runs are modelled outcomes, got failure %q", f)
	}
	if fuzzFailure(&scenariogen.Stats{Runs: 90, Skipped: 10, ViolationCount: 1}, 100) == "" {
		t.Error("an oracle violation passed the fuzz oracle")
	}
	if fuzzFailure(&scenariogen.Stats{Runs: 80, Skipped: 10}, 100) == "" {
		t.Error("a campaign that lost seeds passed the fuzz oracle")
	}
}

// TestSpanSelfTime: self time is a span's duration minus what its direct
// children cover.
func TestSpanSelfTime(t *testing.T) {
	tr := newTracer(3)
	tr.spans = []span{
		{Name: "root", Trace: 1, ID: 1, Start: 0, End: 100},
		{Name: "child", Trace: 1, ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "child", Trace: 1, ID: 3, Parent: 1, Start: 50, End: 60},
	}
	st := tr.byName()
	if got := st["root"].Total - st["root"].Nested; got != 60 {
		t.Errorf("root self time %v, want 60", got)
	}
	if st["child"].Count != 2 || st["child"].Total != 40 {
		t.Errorf("child stat %+v", st["child"])
	}
}

// TestFuzzSeedsStayInCleanWindow: whatever the run seed, every fuzz batch
// lies inside the verified window and no block repeats within a run.
func TestFuzzSeedsStayInCleanWindow(t *testing.T) {
	w, _ := workloadByName("fuzz_single")
	for _, seed := range []int64{0, 1, 7, 42, 1324213574, -5, 1 << 62} {
		seen := map[int64]bool{}
		for i := -1; i < 200; i++ {
			s := w.batchSeed(seed, i)
			if s < fuzzLo || s+int64(w.Ops) > fuzzHi || seen[s] {
				t.Fatalf("seed %d batch %d: first fuzz seed %d outside [%d, %d) or repeated", seed, i, s, fuzzLo, fuzzHi)
			}
			seen[s] = true
		}
	}
}
