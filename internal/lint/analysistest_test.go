package lint

// A stdlib-only stand-in for golang.org/x/tools/go/analysis/analysistest:
// each package under testdata/src/<importPath> is parsed and type-checked,
// the full analyzer suite runs over it (through RunAnalyzers, so //lint:
// suppression filtering is exercised too), and every diagnostic must match a
// backtick-quoted `// want` regexp on its line — and vice versa.

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// testLoader checks every fixture and in-memory source, through the loader
// Load uses. It lists the standard packages they import, so each is read
// from export data once per test binary; a fixture importing another needs
// it added here.
var testLoader = sync.OnceValues(func() (*loader, error) {
	ld, _, err := newLoader(".", "crypto/rand", "fmt", "math/rand", "sort", "strings", "sync/atomic", "time")
	return ld, err
})

// checkPackage type-checks the named files of dir as importPath and returns
// the package the analyzers run on.
func checkPackage(t *testing.T, importPath, dir string, names ...string) *Package {
	t.Helper()
	ld, err := testLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := ld.check(importPath, dir, names)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// loadTestdataPkg parses and type-checks one fixture package.
func loadTestdataPkg(t *testing.T, importPath string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", filepath.FromSlash(importPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		t.Fatalf("no Go files under %s", dir)
	}
	return checkPackage(t, importPath, dir, names...)
}

// wantRe extracts the backtick-quoted regexp from a `// want` comment.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	text    string
	matched bool
}

// collectWants gathers every `// want` expectation in the package.
func collectWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, text: m[1]})
			}
		}
	}
	return wants
}

// runTestdata checks one fixture package's diagnostics against its wants.
func runTestdata(t *testing.T, importPath string) {
	t.Helper()
	pkg := loadTestdataPkg(t, importPath)
	wants := collectWants(t, pkg)

	diags, err := RunAnalyzers([]*Package{pkg}, Analyzers())
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}

	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want `%s`", w.file, w.line, w.text)
		}
	}
}

func TestWallclockFixture(t *testing.T)  { runTestdata(t, "repro/internal/sim") }
func TestGlobalrandFixture(t *testing.T) { runTestdata(t, "repro/internal/netsim") }
func TestMaprangeFixture(t *testing.T)   { runTestdata(t, "maprange") }
func TestHotallocFixture(t *testing.T)   { runTestdata(t, "hotalloc") }
func TestHotcopyFixture(t *testing.T)    { runTestdata(t, "hotcopy") }
func TestHotsharedFixture(t *testing.T)  { runTestdata(t, "hotshared") }
func TestNilsafeFixture(t *testing.T)    { runTestdata(t, "nilsafe") }

// TestAllowlistFixture proves the deterministic-set gate: the same time and
// math/rand calls that light up internal/sim are clean in a CLI package.
func TestAllowlistFixture(t *testing.T) { runTestdata(t, "repro/cmd/democli") }
