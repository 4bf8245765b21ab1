package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// suite holds one pass over every workload: the timed run and the traced
// run of each, every run in a process of its own so that peak RSS, the key
// cache and the GC's state are per workload.
type suite struct {
	Timed  map[string]result
	Traced map[string]result
}

// runChild re-executes this binary for one run of the driver protocol and
// parses the result line. The child's report goes to stderr as it comes.
func runChild(name string, seed int64, seconds float64, trace int, stderr io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe,
		"--workload", name,
		"--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s --trace %d: %w", name, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return result{}, fmt.Errorf("%s --trace %d: result line: %w", name, trace, err)
	}
	return r, nil
}

func runSuite(seed int64, seconds float64, stderr io.Writer) (suite, error) {
	s := suite{Timed: map[string]result{}, Traced: map[string]result{}}
	for _, w := range workloads {
		for trace, into := range []map[string]result{s.Timed, s.Traced} {
			r, err := runChild(w.Name, seed, seconds, trace, stderr)
			if err != nil {
				return s, err
			}
			into[w.Name] = r
		}
	}
	return s, nil
}

// selfCheck runs the suite twice on the same binary and holds the pair to
// the benchmark's own rules: every end-to-end median within its bound of
// the other's, every exact per-layer metric equal, nothing failed. A pair
// that cannot agree with itself cannot judge a change.
func selfCheck(seed int64, seconds float64, stdout, stderr io.Writer) int {
	a, err := runSuite(seed, seconds, stderr)
	if err == nil {
		var b suite
		if b, err = runSuite(seed, seconds, stderr); err == nil {
			return compareSuites(a, b, stdout)
		}
	}
	fmt.Fprintf(stderr, "benchmark: selfcheck: %v\n", err)
	return 1
}

func compareSuites(a, b suite, stdout io.Writer) int {
	bad := 0
	verdict := func(ok bool) string {
		if ok {
			return "ok"
		}
		bad++
		return "FAIL"
	}
	fmt.Fprintf(stdout, "%-20s %-22s %14s %14s %8s %6s\n", "workload", "end-to-end metric", "A", "B", "diff", "")
	for _, w := range workloads {
		ra, rb := a.Timed[w.Name], b.Timed[w.Name]
		for _, m := range endToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			diff := ratio(math.Abs(va-vb), math.Min(va, vb))
			fmt.Fprintf(stdout, "%-20s %-22s %14.4f %14.4f %7.2f%% %6s (bound %.0f%%)\n",
				w.Name, m.Name, va, vb, 100*diff, verdict(diff <= m.Bound), 100*m.Bound)
		}
		for _, r := range []result{ra, rb, a.Traced[w.Name], b.Traced[w.Name]} {
			if r.Failed != 0 || !r.Correct {
				fmt.Fprintf(stdout, "%-20s %d of %d operations failed, correct=%v %6s\n", w.Name, r.Failed, r.Attempted, r.Correct, verdict(false))
			}
		}
		for _, m := range perLayer {
			if !m.Exact {
				continue
			}
			va, vb := a.Traced[w.Name].Metrics[m.Name].Value, b.Traced[w.Name].Metrics[m.Name].Value
			if va != vb {
				fmt.Fprintf(stdout, "%-20s %-42s %v != %v %6s (exact)\n", w.Name, m.Name, va, vb, verdict(false))
			}
		}
	}
	if bad != 0 {
		fmt.Fprintf(stdout, "selfcheck: %d checks failed\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "selfcheck: A/A agrees within every bound; exact metrics equal; nothing failed")
	return 0
}

// writeBaseline records the numbers this commit produces on this machine in
// BASELINE.json — the perf ledger's first row — and regenerates
// ../BENCHMARK.json from the catalogue. It must run from the benchmark
// directory, which `go run -C benchmark . -write` arranges.
func writeBaseline(seed int64, seconds float64, stdout, stderr io.Writer) int {
	if _, err := os.Stat("spec.go"); err != nil {
		fmt.Fprintln(stderr, "benchmark: -write must run from the benchmark directory (go run -C benchmark . -write)")
		return 2
	}
	s, err := runSuite(seed, seconds, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: -write: %v\n", err)
		return 1
	}
	type row struct {
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		EndToEnd  map[string]float64 `json:"end_to_end"`
		PerLayer  map[string]float64 `json:"per_layer"`
	}
	values := func(r result) map[string]float64 {
		out := map[string]float64{}
		for name, m := range r.Metrics {
			out[name] = m.Value
		}
		return out
	}
	doc := struct {
		GeneratedBy string         `json:"generated_by"`
		Date        string         `json:"date"`
		Go          string         `json:"go"`
		Platform    string         `json:"platform"`
		NumCPU      int            `json:"nproc"`
		Seed        int64          `json:"seed"`
		RunSeconds  float64        `json:"run_seconds"`
		Workloads   map[string]row `json:"workloads"`
	}{
		GeneratedBy: "go run -C benchmark . -write",
		Date:        time.Now().UTC().Format("2006-01-02"),
		Go:          runtime.Version(),
		Platform:    runtime.GOOS + "/" + runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Seed:        seed,
		RunSeconds:  seconds,
		Workloads:   map[string]row{},
	}
	for _, w := range workloads {
		t, l := s.Timed[w.Name], s.Traced[w.Name]
		doc.Workloads[w.Name] = row{
			Attempted: t.Attempted + l.Attempted,
			Failed:    t.Failed + l.Failed,
			EndToEnd:  values(t),
			PerLayer:  values(l),
		}
	}
	body, err := json.MarshalIndent(doc, "", "  ")
	if err == nil {
		err = os.WriteFile("BASELINE.json", append(body, '\n'), 0o644)
	}
	if err == nil {
		err = os.WriteFile("../BENCHMARK.json", benchmarkJSON(), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: -write: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "wrote BASELINE.json and ../BENCHMARK.json")
	return 0
}
