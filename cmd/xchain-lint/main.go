// Command xchain-lint statically enforces the repository's determinism and
// hot-path contracts: it runs the internal/lint analyzer suite (wallclock,
// maprange, globalrand, hotalloc, hotcopy, nilsafe) over the given packages
// and exits non-zero on any finding. CI gates every change on a clean
// `xchain-lint ./...` sweep.
//
// Usage:
//
//	xchain-lint ./...                 # the whole module (the CI gate)
//	xchain-lint ./internal/traffic    # one package
//	xchain-lint -only maprange ./...  # a subset of analyzers
//	xchain-lint -list                 # describe the suite
//
// Exit codes: 0 clean, 1 findings, 2 usage or load error (a tree that does
// not compile cannot be analyzed).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xchain-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list = fs.Bool("list", false, "list the analyzers and exit")
		only = fs.String("only", "", "comma-separated subset of analyzers to run")
		dir  = fs.String("C", ".", "directory to resolve package patterns from (must be inside the module)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: xchain-lint [flags] [packages]\n\n")
		fmt.Fprintf(stderr, "Statically enforces the determinism and hot-path contracts.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-11s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "xchain-lint: -only: unknown analyzer %q (see -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "xchain-lint: %v\n", err)
		return 2
	}
	var targets []*lint.Package
	for _, p := range pkgs {
		if p.Target {
			targets = append(targets, p)
		}
	}
	diags, err := lint.RunAnalyzers(targets, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "xchain-lint: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "xchain-lint: %d finding(s) in %d package(s)\n", len(diags), len(targets))
		return 1
	}
	fmt.Fprintf(stderr, "xchain-lint: %d package(s) clean\n", len(targets))
	return 0
}
