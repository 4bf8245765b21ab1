package lint

import (
	"go/ast"
	"go/parser"
	"strings"
	"testing"
)

// checkSource type-checks one in-memory file as importPath and runs the
// full suite over it.
func checkSource(t *testing.T, importPath, src string) []Diagnostic {
	t.Helper()
	f, err := parser.ParseFile(testFset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	diags, err := RunAnalyzers([]*Package{checkPackage(t, importPath, "", []*ast.File{f})}, Analyzers())
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	return diags
}

// TestRepoIsClean is the dogfood gate: the whole module must lint clean.
// CI runs the same sweep through cmd/xchain-lint.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module sweep type-checks the stdlib from source; skipped in -short")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags, err := RunAnalyzers(pkgs, Analyzers())
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("finding: %s", d)
	}
}

// TestBareSuppressionIsReported pins the grammar rule that a //lint:
// directive without a justification is itself a finding — and does not
// suppress anything.
func TestBareSuppressionIsReported(t *testing.T) {
	const src = `package sim

import "time"

func now() time.Time {
	//lint:wallclock
	return time.Now()
}
`
	diags := checkSource(t, "repro/internal/sim", src)
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (unsuppressed finding + bare directive):\n%v", len(diags), diags)
	}
	var sawFinding, sawBare bool
	for _, d := range diags {
		if strings.Contains(d.Message, "depends on the wall clock") {
			sawFinding = true
		}
		if strings.Contains(d.Message, "needs a justification") {
			sawBare = true
		}
	}
	if !sawFinding || !sawBare {
		t.Fatalf("missing expected diagnostics: %v", diags)
	}
}

// TestJustifiedSuppressionSilences is the counterpart: with a reason, the
// finding is dropped and the directive is not reported.
func TestJustifiedSuppressionSilences(t *testing.T) {
	const src = `package sim

import "time"

func now() time.Time {
	//lint:wallclock boot stamp only, never observed by simulated code
	return time.Now()
}
`
	if diags := checkSource(t, "repro/internal/sim", src); len(diags) != 0 {
		t.Fatalf("got %d diagnostics, want 0: %v", len(diags), diags)
	}
}

// TestMaporderAlias pins //lint:maporder as a spelling of //lint:maprange.
func TestMaporderAlias(t *testing.T) {
	const src = `package sim

func keys(m map[string]int, sink []string) []string {
	//lint:maporder order folded away by the caller's sort
	for k := range m {
		sink = append(sink, k)
	}
	return sink
}
`
	if diags := checkSource(t, "repro/internal/sim", src); len(diags) != 0 {
		t.Fatalf("got %d diagnostics, want 0: %v", len(diags), diags)
	}
}

func TestIsDeterministicPkg(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/sim":      true,
		"repro/internal/timelock": true,
		"repro/internal/trace":    true,
		"repro/cmd/xchain-sim":    false,
		"repro/internal/bench":    true,
		"repro/internal/metrics":  false,
		"repro/internal/lint":     false,
	} {
		if got := IsDeterministicPkg(path); got != want {
			t.Errorf("IsDeterministicPkg(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestLoadErrors: loading outside a module must fail loudly, not silently
// lint nothing.
func TestLoadErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list; skipped in -short")
	}
	if _, err := Load(t.TempDir(), "./..."); err == nil {
		t.Fatal("Load outside a module succeeded, want error")
	}
}
