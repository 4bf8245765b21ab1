package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenariogen"
)

func TestRunCampaignClean(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-seeds", "60", "-require-theorem2"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errOut.String(), out.String())
	}
	for _, want := range []string{
		"property violations (bugs): 0",
		"first Theorem-2 counterexample",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunShrinkWritesReplay(t *testing.T) {
	dir := t.TempDir()
	var out, errOut strings.Builder
	code := run([]string{"-seeds", "60", "-shrink", "-out", dir}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errOut.String(), out.String())
	}
	files, err := filepath.Glob(filepath.Join(dir, "theorem2-*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no shrunk replay written (err %v):\n%s", err, out.String())
	}
	// The written replay must round-trip through -replay.
	out.Reset()
	if code := run([]string{"-replay", files[0]}, &out, &errOut); code != 0 {
		t.Fatalf("replay of %s failed (exit %d):\n%s", files[0], code, out.String())
	}
	if !strings.Contains(out.String(), "reproduced:") {
		t.Errorf("replay output missing confirmation:\n%s", out.String())
	}
}

func TestRunReplayCorpusFile(t *testing.T) {
	path := filepath.Join("..", "..", "internal", "scenariogen", "testdata", "theorem2-delay-certificates.json")
	var out, errOut strings.Builder
	if code := run([]string{"-replay", path}, &out, &errOut); code != 0 {
		t.Fatalf("corpus replay failed (exit %d): %s\n%s", code, errOut.String(), out.String())
	}
}

func TestRunReplayDetectsDivergence(t *testing.T) {
	// A replay whose expectation contradicts the run must fail loudly.
	r, err := scenariogen.LoadReplay(filepath.Join("..", "..", "internal", "scenariogen", "testdata", "theorem2-delay-certificates.json"))
	if err != nil {
		t.Fatal(err)
	}
	r.Expect.Violated = nil
	path := filepath.Join(t.TempDir(), "tampered.json")
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{"-replay", path}, &out, &errOut); code != 1 {
		t.Fatalf("tampered replay accepted (exit %d):\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REPLAY DIVERGED") {
		t.Errorf("divergence not reported:\n%s", out.String())
	}
}

func TestRunPrintSeed(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-print-seed", "7"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "class=") || !strings.Contains(out.String(), "\"seed\": 7") {
		t.Errorf("print-seed output incomplete:\n%s", out.String())
	}
	// Native fuzzing mutates seeds across the whole int64 range: negative
	// seeds must print, not silently start a campaign.
	out.Reset()
	if code := run([]string{"-print-seed", "-42"}, &out, &errOut); code != 0 {
		t.Fatalf("negative seed exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "\"seed\": -42") {
		t.Errorf("negative print-seed output incomplete:\n%s", out.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Errorf("unknown flag accepted (exit %d)", code)
	}
	if code := run([]string{"-families", "nope"}, &out, &errOut); code != 2 {
		t.Errorf("unknown family accepted (exit %d)", code)
	}
	if code := run([]string{"-replay", "/no/such/file.json"}, &out, &errOut); code != 2 {
		t.Errorf("missing replay file accepted (exit %d)", code)
	}
	if code := run([]string{"-h"}, &out, &errOut); code != 0 {
		t.Errorf("-h should print usage and exit 0 (exit %d)", code)
	}
}

// TestPrintTraceTail: a VIOLATION block ends with the last events of a
// recorded rerun — at most traceTail of them, up to the run's final event —
// and says so when a family has no single trace.
func TestPrintTraceTail(t *testing.T) {
	sp := scenariogen.Generate(4) // a committee payment: a trace longer than the tail
	tr, err := scenariogen.Trace(sp)
	if err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	if len(evs) <= traceTail {
		t.Fatalf("seed 4 records %d events, want more than the tail of %d", len(evs), traceTail)
	}
	var out strings.Builder
	printTraceTail(&out, sp)
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 1+traceTail {
		t.Fatalf("printed %d lines, want a header and %d events:\n%s", len(lines), traceTail, out.String())
	}
	if want := fmt.Sprintf("last %d of %d events", traceTail, len(evs)); !strings.Contains(lines[0], want) {
		t.Errorf("header %q does not say %q", lines[0], want)
	}
	if got, want := strings.TrimSpace(lines[traceTail]), evs[len(evs)-1].String(); got != want {
		t.Errorf("the tail ends with %q, the run with %q", got, want)
	}

	out.Reset()
	printTraceTail(&out, scenariogen.Generate(21)) // a traffic population
	if !strings.Contains(out.String(), "no trace") {
		t.Errorf("traffic spec printed %q", out.String())
	}
}
