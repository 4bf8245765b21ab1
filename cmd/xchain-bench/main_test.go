package main

import (
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-run", "E1", "-runs", "1", "-maxchain", "2"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"configuration: runs=1 maxchain=2", "E1 —", "(E1 completed in"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunTrafficExperiment(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-run", "E9", "-quick", "-runs", "1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "E9 — concurrent multi-payment traffic") {
		t.Errorf("E9 table missing:\n%s", out.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-run", "E99"}, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "-run:") {
		t.Errorf("unknown experiment accepted or unnamed (exit %d, stderr %q)", code, errOut.String())
	}
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Errorf("unknown flag accepted (exit %d)", code)
	}
	// Negative counts, more seeds than bench allows and chains beyond
	// core.MaxChain are refused, naming the flag, before anything runs:
	// -maxchain 100000 used to start sweeping, and -runs 2000000000 died out
	// of memory allocating its seed list.
	for _, args := range [][]string{
		{"-runs", "-1"},
		{"-runs", "100001"},
		{"-runs", "2000000000"},
		{"-maxchain", "-1"},
		{"-maxchain", "65"},
		{"-maxchain", "100000"},
	} {
		var out, errOut strings.Builder
		if code := run(append(args, "-run", "E3"), &out, &errOut); code != 2 || out.Len() != 0 || !strings.Contains(errOut.String(), args[0]+":") {
			t.Errorf("%v should be rejected before the run (exit %d, stdout %q, stderr %q)", args, code, out.String(), errOut.String())
		}
	}
	if code := run([]string{"-h"}, &out, &errOut); code != 0 {
		t.Errorf("-h should print usage and exit 0 (exit %d)", code)
	}
}
