package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	ImportPath string
	Name       string
	Dir        string
	Target     bool // matched the load patterns (vs. pulled in as a dependency)

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Export     string
	Error      *struct{ Err string }
}

// Load enumerates the packages matching patterns (resolved relative to dir,
// which must be inside the module), parses their non-test Go files and
// type-checks them together with their in-module dependencies. Standard
// library imports are read from the compiler's export data, which the same
// `go list -export` call finds in (or builds into) the build cache: nothing
// is downloaded. Any parse or type error aborts the load: analyzers only run
// on trees that compile.
//
// Test files are deliberately excluded — tests measure wall time, spawn
// goroutines and use testing/quick freely; the determinism contract binds
// the code under test, not the tests.
func Load(dir string, patterns ...string) ([]*Package, error) {
	ld, module, err := newLoader(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, p := range module {
		pkg, err := ld.check(p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		pkg.Target = !p.DepOnly
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// loader type-checks packages against one file set: an import resolves to
// the module package already checked under its path, or else to the
// standard library's export data.
type loader struct {
	fset   *token.FileSet
	std    types.Importer
	byPath map[string]*Package
}

// newLoader lists patterns (relative to dir) with their dependencies and
// export data: a loader whose standard-library imports read the files the
// listing names, and the module packages in its dependency order.
func newLoader(dir string, patterns ...string) (*loader, []*listPkg, error) {
	args := append([]string{"list", "-e", "-deps", "-export", "-json=Dir,ImportPath,Standard,DepOnly,GoFiles,Export,Error", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	export := map[string]string{}
	var module []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listPkg
		if err := dec.Decode(&p); err != nil {
			return nil, nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Standard {
			export[p.ImportPath] = p.Export
			continue
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		module = append(module, &p)
	}
	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		if export[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(export[path])
	}
	ld := &loader{fset: fset, std: importer.ForCompiler(fset, "gc", lookup), byPath: map[string]*Package{}}
	return ld, module, nil
}

// Import implements types.Importer: a module path is already checked
// (dependency order guarantees it), anything else is standard library.
func (ld *loader) Import(path string) (*types.Package, error) {
	if p, ok := ld.byPath[path]; ok {
		return p.Types, nil
	}
	return ld.std.Import(path)
}

// check parses the named Go files of dir and type-checks them as
// importPath: the one path by which module packages and test fixtures alike
// are checked.
func (ld *loader) check(importPath, dir string, names []string) (*Package, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", filepath.Join(dir, name), err)
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var typeErrs []string
	conf := types.Config{Importer: ld, Error: func(err error) { typeErrs = append(typeErrs, err.Error()) }}
	tpkg, _ := conf.Check(importPath, ld.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s:\n  %s", importPath, strings.Join(typeErrs, "\n  "))
	}

	pkg := &Package{ImportPath: importPath, Name: tpkg.Name(), Dir: dir,
		Fset: ld.fset, Files: files, Types: tpkg, Info: info}
	ld.byPath[importPath] = pkg
	return pkg, nil
}
