// Package bench is the experiment harness: it regenerates, as formatted
// tables, every reproducible artefact of the paper — the Figure-1/2
// protocol behaviour, the three theorems, the Section-5 comparison with
// cross-chain deals, the related-work baselines, the cost scaling of all
// protocols, the concurrent-traffic workloads of internal/traffic, and the
// ablations A1..A3. Each experiment is addressable by its ID (E1..E9, E11,
// A1..A3); cmd/xchain-bench prints the tables, the root-level bench_test.go
// wraps them as Go benchmarks, and README's "Experiments" section lists what
// each one reproduces. Each table checks its claims, what the paper says its
// numbers must show, against the numbers its experiment computed. The package
// reads no clock: a table is a function of its Config, and testdata/quick.txt
// pins every table at Quick().
//
// A single-payment table runs its cells in order, each a loop over its seeds
// on a core.World the table keeps (RunIn). Only the traffic tables, E9 and
// E11, use more than one core: they run their seeds in parallel.
package bench

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Config scales the experiments.
type Config struct {
	// Runs is the number of seeds per experiment cell.
	Runs int
	// MaxChain is the largest chain length n swept.
	MaxChain int
}

// maxRuns bounds Config.Runs (5 000 times Full's): a cell allocates its seeds.
const maxRuns = 100_000

// Quick returns a configuration sized for tests and for a fast interactive
// pass (seconds).
func Quick() Config { return Config{Runs: 3, MaxChain: 5} }

// Full returns the configuration of cmd/xchain-bench's full tables (README,
// "Experiments").
func Full() Config { return Config{Runs: 20, MaxChain: 8} }

// Validate checks the configuration, naming the field at fault as
// xchain-bench's flag does: Runs is 0 to maxRuns, and no chain is longer than
// core.MaxChain. A zero is each field's default.
func (c Config) Validate() error {
	switch {
	case c.Runs < 0 || c.Runs > maxRuns:
		return fmt.Errorf("runs: need 0 to %d seeds, got %d", maxRuns, c.Runs)
	case c.MaxChain < 0 || c.MaxChain > core.MaxChain:
		return fmt.Errorf("maxchain: need 0 to %d escrows, got %d", core.MaxChain, c.MaxChain)
	}
	return nil
}

// seeds returns the seed list used for one experiment cell.
func (c Config) seeds() []int64 {
	out := make([]int64, max(c.Runs, 1))
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

// Table is one experiment's formatted result and the claims checked on it.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	claims  []claim
	runErrs int // runs that returned an error, leaving their numbers out
}

// claim is one statement of what the table shows, checked on the numbers its
// experiment computed.
type claim struct {
	text  string
	holds bool
}

// Check records a claim and whether it holds.
func (t *Table) Check(holds bool, format string, args ...any) {
	t.claims = append(t.claims, claim{fmt.Sprintf(format, args...), holds})
}

// RunError notes a run that returned an error, which fails every claim.
func (t *Table) RunError(format string, args ...any) {
	t.runErrs++
	t.AddNote(format, args...)
}

// OK reports whether every claim of the table holds.
func (t *Table) OK() bool {
	return t.runErrs == 0 && !slices.ContainsFunc(t.claims, func(c claim) bool { return !c.holds })
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
	for _, c := range t.claims {
		verdict := "holds"
		if !c.holds || t.runErrs > 0 {
			verdict = "FAILS"
		}
		fmt.Fprintf(&b, "claim: %s %s\n", c.text, verdict)
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

// patient gives every customer of s the patience p.
func patient(s core.Scenario, p sim.Time) core.Scenario {
	for _, id := range s.Topology.Customers() {
		s = s.SetPatience(id, p)
	}
	return s
}

// mixed is the traffic tables' protocol mix.
var mixed = []traffic.ProtocolShare{
	{Name: "timelock", Weight: 0.4},
	{Name: "weaklive", Weight: 0.3},
	{Name: "htlc", Weight: 0.3},
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
