package bench

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

func tiny() Config { return Config{Runs: 2, MaxChain: 3} }

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddRow("longer")
	tab.AddNote("a note %d", 7)
	out := tab.String()
	for _, want := range []string{"X — demo", "a", "bb", "longer", "note: a note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestConfigs(t *testing.T) {
	if q := Quick(); q.Runs <= 0 || q.MaxChain <= 0 {
		t.Error("Quick config incomplete")
	}
	if f := Full(); f.Runs < Quick().Runs || f.MaxChain < Quick().MaxChain {
		t.Error("Full config should not be smaller than Quick")
	}
	if got := (Config{Runs: 3}).seeds(); len(got) != 3 || got[0] != 1 {
		t.Errorf("seeds = %v", got)
	}
	if got := (Config{}).seeds(); len(got) != 1 {
		t.Errorf("zero-run config should still produce one seed, got %v", got)
	}
}

func TestByIDAndAll(t *testing.T) {
	all := All()
	if len(all) != 13 {
		t.Fatalf("expected 13 experiments (E1-E9, E11, A1-A3), got %d", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.Run == nil || e.ID == "" || e.Title == "" {
			t.Fatalf("experiment %+v incomplete", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := ByID("e4"); !ok {
		t.Error("ByID should be case-insensitive")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("ByID found a non-existent experiment")
	}
}

// The individual experiment tests run each experiment at a tiny
// configuration and assert the shape claims the paper implies. They are the
// integration tests tying protocols, adversaries and checkers together.

func rowsByFirstCell(tab *Table, cell string) [][]string {
	var out [][]string
	for _, r := range tab.Rows {
		if len(r) > 0 && r[0] == cell {
			out = append(out, r)
		}
	}
	return out
}

func TestRunE1EnginesAgreeAndPay(t *testing.T) {
	tab := RunE1(tiny())
	if len(tab.Rows) == 0 {
		t.Fatal("E1 produced no rows")
	}
	for _, r := range tab.Rows {
		if r[2] != "yes" {
			t.Errorf("E1 row %v: Bob not paid on the happy path", r)
		}
	}
	if !strings.Contains(tab.String(), "engines agree on outcomes: yes") {
		t.Error("E1 engines disagree")
	}
}

func TestRunE2NoViolations(t *testing.T) {
	tab := RunE2(tiny())
	for _, r := range tab.Rows {
		if r[2] != "0" {
			t.Errorf("E2 property %s has %s violations", r[0], r[2])
		}
	}
}

func TestRunE3WithinBound(t *testing.T) {
	tab := RunE3(tiny())
	if len(tab.Rows) == 0 {
		t.Fatal("E3 produced no rows")
	}
	for _, r := range tab.Rows {
		var ratio float64
		if _, err := fmtSscan(r[4], &ratio); err != nil {
			t.Fatalf("cannot parse ratio %q", r[4])
		}
		if ratio > 1 {
			t.Errorf("E3 n=%s: termination exceeded the bound (ratio %s)", r[0], r[4])
		}
	}
}

func TestRunE4ReproducesTheorem2(t *testing.T) {
	tab := RunE4(tiny())
	out := tab.String()
	if strings.Contains(out, "THEOREM 2 NOT REPRODUCED") {
		t.Fatalf("E4 failed to reproduce Theorem 2:\n%s", out)
	}
	if !strings.Contains(out, "control: the same candidates satisfy Definition 1 under synchrony: yes") {
		t.Errorf("E4 control group failed:\n%s", out)
	}
}

// TestQuickGolden pins every table of the quick configuration byte for byte:
// E4's findings, durations included, and each experiment's rows and notes.
// Regenerate with XCHAIN_REGEN_GOLDEN=1 after a deliberate change.
func TestQuickGolden(t *testing.T) {
	tables := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var b strings.Builder
		for _, e := range All() {
			b.WriteString(e.Run(Quick()).String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	got := tables(runtime.GOMAXPROCS(0))
	const golden = "testdata/quick.txt"
	if os.Getenv("XCHAIN_REGEN_GOLDEN") == "1" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("the quick tables drifted from %s:\n%s", golden, got)
	}
	// E9 and E11 spread their seeds over GOMAXPROCS goroutines, which must
	// never reach a table byte.
	if got := tables(1); got != string(want) {
		t.Fatalf("at GOMAXPROCS=1 the quick tables drifted from %s:\n%s", golden, got)
	}
}

func TestRunE5SafetyAlwaysHolds(t *testing.T) {
	tab := RunE5(tiny())
	if len(tab.Rows) == 0 {
		t.Fatal("E5 produced no rows")
	}
	for _, r := range tab.Rows {
		if r[4] != "0" {
			t.Errorf("E5 %s/%s: %s safety violations", r[0], r[1], r[4])
		}
	}
	// All-honest, patient runs must pay Bob every time.
	for _, r := range tab.Rows {
		if r[1] == "all honest" && !strings.Contains(r[3], "100.0%") {
			t.Errorf("E5 %s all-honest: Bob paid only %s", r[0], r[3])
		}
	}
}

func TestRunE6DealsComparison(t *testing.T) {
	tab := RunE6(tiny())
	if len(tab.Rows) < 4 {
		t.Fatalf("E6 produced %d rows, want at least 4", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r[1] == "deal" && r[4] != "no" {
			t.Errorf("E6 %s: the payment-as-deal should not be well-formed", r[0])
		}
		if r[1] == "payment" && !strings.Contains(r[3], "100.0%") {
			t.Errorf("E6 %s: Alice obtained proof in only %s of runs", r[0], r[3])
		}
	}
}

func TestRunE7BaselineComparison(t *testing.T) {
	tab := RunE7(tiny())
	htlcHonest := rowsByFirstCell(tab, "htlc")
	timelockHonest := rowsByFirstCell(tab, "timelock")
	if len(htlcHonest) == 0 || len(timelockHonest) == 0 {
		t.Fatal("E7 missing protocol rows")
	}
	for _, r := range timelockHonest {
		if r[1] == "all honest" && !strings.Contains(r[4], "100.0%") {
			t.Errorf("timelock all-honest: Alice proof rate %s", r[4])
		}
	}
	for _, r := range htlcHonest {
		if !strings.Contains(r[4], "0.0%") {
			t.Errorf("htlc %s: Alice should never obtain chi, got %s", r[1], r[4])
		}
		if r[1] == "all honest" && !strings.Contains(r[2], "100.0%") {
			t.Errorf("htlc all-honest: Bob paid only %s", r[2])
		}
	}
}

func TestRunE8CostScaling(t *testing.T) {
	tab := RunE8(tiny())
	if len(tab.Rows) == 0 {
		t.Fatal("E8 produced no rows")
	}
	// Messages must grow with n for the timelock protocol.
	rows := rowsByFirstCell(tab, "timelock")
	if len(rows) < 2 {
		t.Fatal("E8 missing timelock rows")
	}
	var first, last float64
	if _, err := fmtSscan(rows[0][2], &first); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscan(rows[len(rows)-1][2], &last); err != nil {
		t.Fatal(err)
	}
	if last <= first {
		t.Errorf("E8: timelock message count does not grow with n (%v -> %v)", first, last)
	}
}

func TestRunE9Traffic(t *testing.T) {
	tab := RunE9(tiny())
	if len(tab.Rows) < 3 {
		t.Fatalf("E9 produced %d rows", len(tab.Rows))
	}
	for _, n := range tab.Notes {
		if strings.Contains(n, "AUDIT FAILED") {
			t.Fatalf("E9 ledger audit failed: %s", n)
		}
	}
	open := rowsByFirstCell(tab, "open/ample")
	if len(open) == 0 {
		t.Fatal("E9 missing the open/ample regime")
	}
	for _, r := range open {
		if !strings.Contains(r[3], "100.0%") {
			t.Errorf("E9 open/ample n=%s: success rate %s, want 100%%", r[1], r[3])
		}
	}
	starved := rowsByFirstCell(tab, "burst/starved")
	for _, r := range starved {
		var rejected float64
		if _, err := fmt.Sscan(strings.TrimSuffix(r[4], "%"), &rejected); err != nil {
			t.Fatalf("cannot parse rejection rate %q", r[4])
		}
		if rejected <= 0 {
			t.Errorf("E9 burst/starved n=%s: no rejections under starved liquidity", r[1])
		}
	}
}

func TestRunE11ByzantineTraffic(t *testing.T) {
	tab := RunE11(tiny())
	if len(tab.Rows) != 8 {
		t.Fatalf("E11 produced %d rows, want 4 fractions x 2 loads", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		// The aggregate safety oracle: zero owed safety failures in every
		// cell, at every attacker fraction and load.
		if r[10] != "0" {
			t.Errorf("E11 %s attacker=%s: %s safety violations", r[0], r[1], r[10])
		}
		if r[1] == "0.0%" {
			if r[4] != "0.0%" || r[9] != "0.00" {
				t.Errorf("E11 %s honest baseline reports Byzantine activity: %v", r[0], r)
			}
		} else if r[2] == "0" {
			t.Errorf("E11 %s attacker=%s compiled no Byzantine connectors", r[0], r[1])
		}
	}
	out := tab.String()
	if strings.Contains(out, "AUDIT FAILED") || strings.Contains(out, "CASCADE FAILED") {
		t.Fatalf("E11 conservation broken:\n%s", out)
	}
	if !strings.Contains(out, "zero owed safety-property failures") {
		t.Fatalf("E11 safety oracle note missing:\n%s", out)
	}
	// The heaviest attack cell must show measurable damage. The open load is
	// the clean damage reading (no capacity contention to hide behind):
	// faulted payments exist and success degrades below the honest baseline.
	var honest, attacked float64
	for _, r := range tab.Rows {
		if r[0] != "open" {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(strings.TrimSuffix(r[3], "%"), &v); err != nil {
			t.Fatalf("cannot parse success rate %q", r[3])
		}
		if r[1] == "0.0%" {
			honest = v
		}
		if r[1] == "25.0%" {
			attacked = v
			if r[4] == "0.0%" {
				t.Errorf("E11 open attacker=25%%: no payment crossed a Byzantine connector")
			}
		}
	}
	if attacked >= honest {
		t.Errorf("E11 open: 25%% attackers did not degrade success (%.1f%% vs honest %.1f%%)", attacked, honest)
	}
}

func TestRunA1DriftAblation(t *testing.T) {
	tab := RunA1(Config{Runs: 4, MaxChain: 3})
	if len(tab.Rows) != 2 {
		t.Fatalf("A1 produced %d rows", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r[0] == "timelock" && r[3] != "0" {
			t.Errorf("A1: the drift-aware derivation shows %s safety violations", r[3])
		}
	}
}

func TestRunA2CommitteeAblation(t *testing.T) {
	tab := RunA2(tiny())
	for _, r := range tab.Rows {
		if r[4] != "0" {
			t.Errorf("A2 size=%s faulty=%s: certificate consistency violated", r[0], r[1])
		}
	}
}

func TestRunA3PatienceAblation(t *testing.T) {
	tab := RunA3(tiny())
	if len(tab.Rows) < 3 {
		t.Fatal("A3 produced too few rows")
	}
	for _, r := range tab.Rows {
		if r[3] != "0" {
			t.Errorf("A3 patience=%s: safety violated", r[0])
		}
	}
	// The most patient configuration must succeed in every run.
	last := tab.Rows[len(tab.Rows)-1]
	if !strings.Contains(last[1], "100.0%") {
		t.Errorf("A3: most patient configuration paid Bob only %s", last[1])
	}
}

// fmtSscan parses a numeric table cell that may carry a trailing unit.
func fmtSscan(cell string, out *float64) (int, error) {
	cell = strings.TrimSuffix(strings.TrimSpace(cell), "ms")
	return fmt.Sscan(cell, out)
}
