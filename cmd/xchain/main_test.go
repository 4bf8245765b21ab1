package main

import (
	"strings"
	"testing"
)

func TestRunHappyPath(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-n", "2", "-seed", "1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"Bob paid: true", "--- properties ---", "PASS"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunProtocolsAndFaults(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-n", "2", "-protocol", "weaklive", "-fault", "c1=silent"}, &out, &errOut)
	// A silent connector must not break safety; the run may still report
	// liveness as not owed, so only exit codes 0/1 are acceptable.
	if code == 2 {
		t.Fatalf("flag handling failed: %s", errOut.String())
	}
	if !strings.Contains(out.String(), "--- properties ---") {
		t.Errorf("property report missing:\n%s", out.String())
	}
}

// Every protocol is judged under the Definition its theorem is stated in:
// certificate consistency and weak liveness are Definition-2 properties.
func TestRunJudgesUnderTheProtocolsDefinition(t *testing.T) {
	for proto, def2 := range map[string]bool{
		"timelock": false, "timelock-anta": false, "timelock-naive": false, "htlc": false,
		"weaklive": true, "weaklive-committee": true,
	} {
		var out, errOut strings.Builder
		if code := run([]string{"-n", "2", "-protocol", proto}, &out, &errOut); code == 2 {
			t.Fatalf("%s: flag handling failed: %s", proto, errOut.String())
		}
		_, report, _ := strings.Cut(out.String(), "--- properties ---")
		if got := strings.Contains(report, " CC") && strings.Contains(report, " WL"); got != def2 {
			t.Errorf("%s: Definition 2 = %v, want %v:\n%s", proto, got, def2, report)
		}
	}
}

func TestRunBadFlags(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-protocol", "bogus"}, &out, &errOut); code != 2 {
		t.Errorf("unknown protocol accepted (exit %d)", code)
	}
	if code := run([]string{"-network", "bogus"}, &out, &errOut); code != 2 {
		t.Errorf("unknown network accepted (exit %d)", code)
	}
	for _, fault := range []string{"nonsense", "c1=sillent", "c9=silent", "notaryX=silent"} {
		out.Reset()
		if code := run([]string{"-fault", fault}, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("-fault %s should be rejected before the run (exit %d, stdout %q)", fault, code, out.String())
		}
	}
	// A chain needs an escrow and a committee a notary: -n 0 used to panic
	// in core.NewTopology, and -committee 0 to run a committee of 4. Neither
	// may exceed core.MaxChain: -committee 1000 used to hit the runaway cap.
	for _, args := range [][]string{
		{"-n", "0"},
		{"-n", "-3"},
		{"-n", "65"},
		{"-protocol", "weaklive-committee", "-committee", "0"},
		{"-protocol", "weaklive-committee", "-committee", "-2"},
		{"-protocol", "weaklive-committee", "-committee", "65"},
		{"-protocol", "weaklive-committee", "-committee", "1000"},
	} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 || !strings.Contains(errOut.String(), args[len(args)-2]+":") {
			t.Errorf("%v should be rejected before the run (exit %d, stdout %q, stderr %q)", args, code, out.String(), errOut.String())
		}
	}
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Errorf("unknown flag accepted (exit %d)", code)
	}
	if code := run([]string{"-h"}, &out, &errOut); code != 0 {
		t.Errorf("-h should print usage and exit 0 (exit %d)", code)
	}
}
