package main

import (
	"strings"
	"testing"
)

func TestRunReproducesClaims(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-n", "2", "-seeds", "1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errOut.String(), out.String())
	}
	for _, want := range []string{
		"clean: no property violated",
		"reproduced: every candidate protocol fails Definition 1",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunBadFlags(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Errorf("unknown flag accepted (exit %d)", code)
	}
	// -n 0 used to panic in core.NewTopology.
	out.Reset()
	if code := run([]string{"-n", "0"}, &out, &errOut); code != 2 || out.Len() != 0 || !strings.Contains(errOut.String(), "-n:") {
		t.Errorf("-n 0 should be rejected before the run (exit %d, stdout %q, stderr %q)", code, out.String(), errOut.String())
	}
	// -seeds 0 used to print "clean" having audited nothing; an -n past the
	// scenario chain bound spent O(n²) on fault assignments before the first
	// run.
	for _, args := range [][]string{{"-seeds", "0"}, {"-seeds", "-3"}, {"-n", "65"}} {
		out.Reset()
		errOut.Reset()
		flagName := args[0] + ":"
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 || !strings.Contains(errOut.String(), flagName) {
			t.Errorf("%v should be rejected before the run naming %s (exit %d, stdout %q, stderr %q)", args, flagName, code, out.String(), errOut.String())
		}
	}
	if code := run([]string{"-h"}, &out, &errOut); code != 0 {
		t.Errorf("-h should print usage and exit 0 (exit %d)", code)
	}
}
