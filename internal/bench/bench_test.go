package bench

import (
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
	tab.Check(true, "kept %d", 1)
	out := tab.String()
	for _, want := range []string{"X — demo", "a", "bb", "longer", "note: a note 7", "claim: kept 1 holds\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
	if !tab.OK() {
		t.Error("a table whose only claim holds is not OK")
	}
	// A run error fails every claim, since the table's numbers omit that run.
	tab.RunError("run failed")
	if tab.OK() || !strings.Contains(tab.String(), "claim: kept 1 FAILS\n") {
		t.Errorf("a run error left the claim holding:\n%s", tab)
	}
	tab = &Table{}
	tab.Check(false, "broken")
	if tab.OK() || !strings.HasSuffix(tab.String(), "\nclaim: broken FAILS\n") {
		t.Errorf("a failed claim left the table OK:\n%s", tab)
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

// TestExperimentClaims runs every experiment at a tiny configuration (A1 at
// its own, which asks more seeds of it) and requires each claim of its table
// to hold. It is the integration test tying protocols, adversaries and
// checkers to what the paper says they show.
func TestExperimentClaims(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			cfg := tiny()
			if e.ID == "A1" {
				cfg.Runs = 4
			}
			tab := e.Run(cfg)
			if len(tab.Rows) == 0 || len(tab.claims) == 0 || !tab.OK() {
				t.Errorf("%s has no rows, claims nothing or a claim fails:\n%s", e.ID, tab)
			}
		})
	}
}

// TestRunE2NoViolations runs E2 at the zero config, which Validate accepts
// and which runs one seed: no property is violated, and the runs note counts
// the seed that ran rather than the zero in Runs.
func TestRunE2NoViolations(t *testing.T) {
	tab := RunE2(Config{})
	for _, r := range tab.Rows {
		if r[2] != "0" {
			t.Errorf("E2 property %s has %s violations", r[0], r[2])
		}
	}
	if len(tab.Rows) == 0 || !tab.OK() || !strings.Contains(tab.String(), ", 1 seeds each)") {
		t.Errorf("E2 at the zero config:\n%s", tab)
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
