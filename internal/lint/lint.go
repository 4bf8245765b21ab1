// Package lint implements xchain-lint: a suite of static analyzers that
// enforce, at compile time, the two contracts every dynamic oracle in this
// repository leans on.
//
//   - Determinism. A run is a pure function of its scenario and seed —
//     byte-identical across worker counts, retention policies and crypto
//     backends. The equivalence suites check this dynamically, but
//     only for code paths that happen to fire; the wallclock, maprange and
//     globalrand analyzers rule out the three mechanical ways Go code breaks
//     the contract (reading the wall clock, iterating a map where order
//     matters, drawing from an unseeded process-global RNG) before a test
//     ever runs. PR 2's Broadcast map-iteration bug is the motivating
//     specimen: it survived until a trace diff exposed it.
//
//   - Hot-path frugality. The muted kernel, network, ledger and metrics
//     paths are allocation-free by construction (PR 2, PR 6); the hotalloc
//     and nilsafe analyzers pin the source-level idioms those guarantees
//     rest on (trace formatting guarded by Recording(), scheduled actions
//     that are package-level functions rather than closures, nil-receiver
//     no-op handles).
//
// # Annotation grammar
//
// Three comment directives drive the suite:
//
//	//xchain:hotpath          on a function's doc comment: the function is a
//	                          muted hot path; hotalloc checks its body.
//	//xchain:nilsafe          on a type's doc comment: every exported
//	                          pointer-receiver method must begin with a
//	                          nil-receiver guard (or delegate to one that
//	                          does); nilsafe checks each method.
//	//lint:<analyzer> <why>   on (or immediately above) a flagged line:
//	                          suppresses that analyzer's diagnostic at that
//	                          site. The justification is mandatory — a bare
//	                          //lint:maporder is itself a finding.
//	                          //lint:maporder is the idiomatic alias for
//	                          //lint:maprange at sanctioned unordered map
//	                          iteration sites.
//
// # Framework
//
// The types below mirror the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Reportf) so the suite can migrate to the upstream
// multichecker wholesale if that dependency ever becomes available. This
// build environment has no module proxy access, so the driver, the package
// loader (load.go) and the golden-diagnostic test harness are implemented on
// the standard library alone: `go list -json -deps` enumerates packages,
// go/parser + go/types type-check them, and stdlib imports resolve through
// go/importer's source importer.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one static check. The shape matches
// golang.org/x/tools/go/analysis.Analyzer closely enough that porting the
// suite to the upstream framework is mechanical.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:
	// suppression comments.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Wallclock, Maprange, Globalrand, Hotalloc, Nilsafe}
}

// deterministicPkgs lists the packages whose runs must be pure functions of
// their inputs: everything executing on (or feeding) the virtual-time
// kernel. The wallclock and globalrand analyzers only apply inside these.
// CLIs (repro/cmd/...), examples, the facade, internal/bench (wall-clock
// measurement is its job), internal/metrics (live observability) and this
// package are deliberately outside the set.
var deterministicPkgs = map[string]bool{
	"repro/internal/sim":         true,
	"repro/internal/netsim":      true,
	"repro/internal/core":        true,
	"repro/internal/ledger":      true,
	"repro/internal/traffic":     true,
	"repro/internal/timelock":    true,
	"repro/internal/anta":        true,
	"repro/internal/htlc":        true,
	"repro/internal/weaklive":    true,
	"repro/internal/notary":      true,
	"repro/internal/deals":       true,
	"repro/internal/scenariogen": true,
	"repro/internal/check":       true,
	"repro/internal/checkpoint":  true,
	// Not named by the original contract list but equally inside the
	// deterministic world: local clocks, traces, adversary behaviours, the
	// exhaustive explorer and the stats reductions all run under virtual
	// time.
	"repro/internal/clock":     true,
	"repro/internal/trace":     true,
	"repro/internal/adversary": true,
	"repro/internal/explore":   true,
	"repro/internal/stats":     true,
	"repro/internal/sig":       true,
}

// IsDeterministicPkg reports whether the import path is inside the
// determinism contract.
func IsDeterministicPkg(path string) bool { return deterministicPkgs[path] }

// suppression is one //lint:<analyzer> <why> comment.
type suppression struct {
	analyzer string
	reason   string
	pos      token.Pos
}

// suppressionRe matches the directive anywhere a comment starts; the
// justification is everything after the analyzer name.
var suppressionRe = regexp.MustCompile(`^//lint:([a-z]+)\s*(.*)$`)

// suppressionAliases maps idiomatic directive spellings onto analyzer
// names: //lint:maporder (the spelling the contract documents for sanctioned
// unordered map iteration) suppresses the maprange analyzer.
var suppressionAliases = map[string]string{
	"maporder": "maprange",
}

// fileSuppressions collects a file's //lint: directives in source order.
func fileSuppressions(f *ast.File) []suppression {
	var out []suppression
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := suppressionRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			name := m[1]
			if canonical, ok := suppressionAliases[name]; ok {
				name = canonical
			}
			out = append(out, suppression{
				analyzer: name,
				reason:   strings.TrimSpace(m[2]),
				pos:      c.Pos(),
			})
		}
	}
	return out
}

// RunAnalyzers executes every analyzer over every package and returns the
// surviving diagnostics sorted by position. //lint: suppressions with a
// justification drop the matching diagnostic on the same line or the line
// below the comment; a suppression without a justification is itself
// reported.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range pkgs {
		var diags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
			}
		}

		// Index the package's suppressions by file and line.
		type key struct {
			file string
			line int
		}
		supp := map[key][]suppression{}
		var inOrder []suppression
		for _, f := range pkg.Files {
			for _, s := range fileSuppressions(f) {
				pos := pkg.Fset.Position(s.pos)
				k := key{pos.Filename, pos.Line}
				supp[k] = append(supp[k], s)
				inOrder = append(inOrder, s)
			}
		}

		for _, d := range diags {
			suppressed := false
			// A directive suppresses findings on its own line (trailing
			// comment) or on the line directly below it (comment above the
			// flagged statement).
			for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
				for _, s := range supp[key{d.Pos.Filename, line}] {
					if s.analyzer == d.Analyzer && s.reason != "" {
						suppressed = true
					}
				}
			}
			if !suppressed {
				all = append(all, d)
			}
		}

		// Bare suppressions are findings of their own, matched or not:
		// the annotation grammar requires a recorded justification.
		for _, s := range inOrder {
			if s.reason == "" {
				all = append(all, Diagnostic{
					Pos:      pkg.Fset.Position(s.pos),
					Analyzer: s.analyzer,
					Message:  fmt.Sprintf("//lint:%s suppression needs a justification (\"//lint:%s <why>\")", s.analyzer, s.analyzer),
				})
			}
		}
	}

	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all, nil
}
