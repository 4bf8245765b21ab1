package main

import (
	"fmt"
	"os"
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
	for _, fault := range []string{"nonsense", "c1=sillent", "c9=silent", "notaryX=silent"} {
		out.Reset()
		if code := run([]string{"-fault", fault}, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("-fault %s should be rejected before the run (exit %d, stdout %q)", fault, code, out.String())
		}
	}
	// A chain needs an escrow and a committee a notary: -n 0 used to panic
	// in core.NewTopology, and -committee 0 to run a committee of 4. Neither
	// may exceed core.MaxChain: -committee 1000 used to hit the runaway cap.
	// A negative -gst or -patience used to run and exit 0.
	for _, args := range [][]string{
		{"-protocol", "bogus"},
		{"-network", "bogus"},
		{"-network", "partial", "-gst", "-1s"},
		{"-patience", "-5s"},
		{"-n", "0"},
		{"-n", "-3"},
		{"-n", "65"},
		{"-protocol", "weaklive-committee", "-committee", "0"},
		{"-protocol", "weaklive-committee", "-committee", "-2"},
		{"-protocol", "weaklive-committee", "-committee", "65"},
		{"-protocol", "weaklive-committee", "-committee", "1000"},
		// A fault on nobody used to run the honest payment and waive its
		// liveness verdict; a -gst or -patience past the spec's span bound
		// used to run.
		{"-protocol", "timelock", "-fault", "notary0=silent"},
		{"-protocol", "timelock", "-fault", "manager=silent"},
		{"-protocol", "weaklive", "-fault", "notary0=silent"},
		{"-patience", "2000h"},
		{"-network", "partial", "-gst", "2000h"},
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

// TestRunGolden pins stdout and the exit code of every protocol, on both
// networks, honest and under one faulty connector or escrow, on chains of one
// and three escrows, plus one recorded trace. Regenerate with
// XCHAIN_REGEN_GOLDEN=1 after a deliberate change to a run or its report.
func TestRunGolden(t *testing.T) {
	var argvs [][]string
	for _, proto := range []string{"timelock", "timelock-anta", "timelock-naive", "weaklive", "weaklive-committee", "htlc"} {
		for _, network := range []string{"sync", "partial"} {
			for _, fault := range []string{"", "c1=silent", "e0=theft"} {
				for _, n := range []string{"1", "3"} {
					args := []string{"-protocol", proto, "-network", network, "-n", n}
					if fault != "" {
						args = append(args, "-fault", fault)
					}
					argvs = append(argvs, args)
				}
			}
		}
	}
	argvs = append(argvs, []string{"-n", "3", "-protocol", "weaklive", "-fault", "c1=silent", "-trace"})
	var got strings.Builder
	for _, args := range argvs {
		var out, errOut strings.Builder
		code := run(args, &out, &errOut)
		fmt.Fprintf(&got, "$ xchain %s\n%sexit %d\n\n", strings.Join(args, " "), out.String(), code)
	}
	const golden = "testdata/runs.txt"
	if os.Getenv("XCHAIN_REGEN_GOLDEN") == "1" {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("runs drifted from %s:\n%s", golden, got.String())
	}
}
