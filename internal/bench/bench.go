// Package bench is the experiment harness: it regenerates, as formatted
// tables, every reproducible artefact of the paper — the Figure-1/2
// protocol behaviour, the three theorems, the Section-5 comparison with
// cross-chain deals, the related-work baselines, the cost scaling of all
// protocols, the concurrent-traffic workloads of internal/traffic, and the
// ablations A1..A3. Each experiment is addressable by its ID (E1..E9, E11,
// A1..A3); cmd/xchain-bench prints the tables, the root-level bench_test.go
// wraps them as Go benchmarks, and README's "Experiments" section lists what
// each one reproduces. The package reads no clock: a table is a function of
// its Config, and testdata/quick.txt pins every table at Quick().
package bench

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"repro/internal/core"
)

// Config scales the experiments.
type Config struct {
	// Runs is the number of seeds per experiment cell.
	Runs int
	// MaxChain is the largest chain length n swept.
	MaxChain int
	// Workers bounds the number of scenario runs executed concurrently
	// (independent runs only; each run stays single-threaded and
	// deterministic). Zero means GOMAXPROCS.
	Workers int
}

// Quick returns a configuration sized for tests and for a fast interactive
// pass (seconds).
func Quick() Config { return Config{Runs: 3, MaxChain: 5} }

// Full returns the configuration of cmd/xchain-bench's full tables (README,
// "Experiments").
func Full() Config { return Config{Runs: 20, MaxChain: 8} }

// Validate checks the configuration, naming the field at fault as
// xchain-bench's flag does: no count is negative, and no chain is longer than
// core.MaxChain. A zero is each field's default.
func (c Config) Validate() error {
	switch {
	case c.Runs < 0:
		return fmt.Errorf("runs: need a non-negative count, got %d", c.Runs)
	case c.Workers < 0:
		return fmt.Errorf("workers: need a non-negative count, got %d", c.Workers)
	case c.MaxChain < 0 || c.MaxChain > core.MaxChain:
		return fmt.Errorf("maxchain: need 0 to %d escrows, got %d", core.MaxChain, c.MaxChain)
	}
	return nil
}

// workers resolves the worker count.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// seeds returns the seed list used for one experiment cell.
func (c Config) seeds() []int64 {
	runs := c.Runs
	if runs <= 0 {
		runs = 1
	}
	out := make([]int64, runs)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

// Table is one experiment's formatted result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row; extra or missing cells are tolerated and padded at
// rendering time.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a free-text note rendered under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with fixed-width columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i := range t.Columns {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		b.WriteString(strings.Repeat("-", w))
		if i < len(widths)-1 {
			b.WriteString("  ")
		}
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is one addressable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) *Table
}

// All returns every experiment in canonical order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Figure 1/2: happy-path protocol flow and engine agreement", Run: RunE1},
		{ID: "E2", Title: "Theorem 1: Definition-1 properties under synchrony with Byzantine participants", Run: RunE2},
		{ID: "E3", Title: "Theorem 1: measured termination time vs a-priori bound", Run: RunE3},
		{ID: "E4", Title: "Theorem 2: impossibility under partial synchrony (adversarial search)", Run: RunE4},
		{ID: "E5", Title: "Theorem 3: Definition-2 properties under partial synchrony", Run: RunE5},
		{ID: "E6", Title: "Section 5: cross-chain payments vs cross-chain deals", Run: RunE6},
		{ID: "E7", Title: "Related work: HTLC baseline vs the time-bounded protocol", Run: RunE7},
		{ID: "E8", Title: "Cost scaling: messages, latency and ledger operations vs chain length", Run: RunE8},
		{ID: "E9", Title: "Traffic: concurrent multi-payment workloads on a shared escrow chain", Run: RunE9},
		{ID: "E11", Title: "Byzantine traffic: measured attack damage vs attacker fraction", Run: RunE11},
		{ID: "A1", Title: "Ablation: clock-drift fine-tuning of the timeout derivation", Run: RunA1},
		{ID: "A2", Title: "Ablation: notary committee size and fault threshold", Run: RunA2},
		{ID: "A3", Title: "Ablation: patience sensitivity of the weak-liveness protocol", Run: RunA3},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// forEach runs job(idx) for every idx in [0, n) across a bounded worker
// pool and returns the results in index order, whichever worker finished
// first.
func forEach[R any](cfg Config, n int, job func(idx int) R) []R {
	results := make([]R, n)
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for range max(1, min(cfg.workers(), n)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range idxCh {
				results[idx] = job(idx)
			}
		}()
	}
	for idx := range n {
		idxCh <- idx
	}
	close(idxCh)
	wg.Wait()
	return results
}

// runJob is one scenario execution request used by the parallel sweep
// helper.
type runJob struct {
	protocol core.Protocol
	scenario core.Scenario
}

// runParallel executes the jobs on forEach's pool and hands each result,
// with its job index, to collect. The collect callback runs in the calling
// goroutine, so collectors need no locking; result order is by job index.
func runParallel(cfg Config, jobs []runJob, collect func(idx int, res *core.RunResult, err error)) {
	type item struct {
		res *core.RunResult
		err error
	}
	items := forEach(cfg, len(jobs), func(idx int) item {
		res, err := jobs[idx].protocol.Run(jobs[idx].scenario)
		return item{res, err}
	})
	for idx, it := range items {
		collect(idx, it.res, it.err)
	}
}

// fmtF renders a float with sensible precision for the tables.
func fmtF(v float64) string { return fmt.Sprintf("%.2f", v) }

// fmtPct renders a rate as a percentage.
func fmtPct(rate float64) string { return fmt.Sprintf("%.1f%%", 100*rate) }

// yesNo renders a boolean.
func yesNo(v bool) string {
	if v {
		return "yes"
	}
	return "no"
}
