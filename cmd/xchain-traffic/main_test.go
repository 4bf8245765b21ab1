package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sig"
)

func TestRunSmallWorkload(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-n", "3", "-payments", "40", "-rate", "200", "-mix", "timelock=0.5,htlc=0.5"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"traffic: 40 payments over 3 escrows", "audit=ok", "pending-locks=0"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunStarvedQueueVerbose(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{
		"-n", "3", "-payments", "30", "-arrival", "burst", "-burst", "15",
		"-liquidity", "450", "-queue", "3s", "-v",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "dropped=") {
		t.Errorf("summary missing:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "p00000-c0-c3") {
		t.Errorf("-v payment table missing:\n%s", out.String())
	}
}

// TestRunStreaming checks the bounded-memory pipeline end to end: the
// summary carries the full payment count, aggregate lines and a clean
// audit, and -v renders the exemplar reservoir instead of a full table.
func TestRunStreaming(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-n", "2", "-payments", "500", "-rate", "2000", "-stream", "-exemplars", "4", "-v"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"traffic: 500 payments over 2 escrows", "audit=ok", "pending-locks=0"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if got := strings.Count(out.String(), "arrive="); got != 4 {
		t.Errorf("-v with -stream printed %d exemplar rows, want 4:\n%s", got, out.String())
	}
	// Aggregates match the run that keeps every record exactly (percentiles
	// excepted, which the histogram estimates; compare the outcome line only).
	var matOut, matErr strings.Builder
	if code := run([]string{"-n", "2", "-payments", "500", "-rate", "2000"}, &matOut, &matErr); code != 0 {
		t.Fatalf("run without -stream failed: %s", matErr.String())
	}
	outcome := func(s string) string {
		for _, line := range strings.Split(s, "\n") {
			if strings.Contains(line, "outcome") {
				return line
			}
		}
		return ""
	}
	if a, b := outcome(out.String()), outcome(matOut.String()); a == "" || a != b {
		t.Errorf("streaming outcome line differs:\n%s\n%s", a, b)
	}
}

// TestRunLiquidityBoundPinned is CI's liquidity-bound smoke as a test: the
// summary of a run whose payments mostly queue on drained hops must equal,
// byte for byte, the file generated before admission read balances and
// settlements woke waiters by account (PR 14) — the admission order is
// pinned across versions, not just across knobs.
func TestRunLiquidityBoundPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("15 000 payments; the race job runs the same command as a smoke")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "liquidity-bound-smoke.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	code := run([]string{
		"-n", "8", "-payments", "15000", "-rate", "4000", "-subpaths", "-liquidity", "100000",
		"-queue", "1s", "-stream", "-crypto", "hmac", "-seed", "5",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if out.String() != string(want) {
		t.Errorf("summary drifted from testdata/liquidity-bound-smoke.txt:\n%s", out.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Errorf("unknown flag accepted (exit %d)", code)
	}
	// There is one timeline and no flag to pick another: -shards fails like
	// any unknown flag, with the usage on stderr.
	errOut.Reset()
	if code := run([]string{"-shards", "2"}, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "Usage") {
		t.Errorf("-shards should be an unknown flag (exit %d, stderr %q)", code, errOut.String())
	}
	if code := run([]string{"-mix", "timelock=abc"}, &out, &errOut); code != 2 {
		t.Errorf("malformed mix accepted (exit %d)", code)
	}
	if code := run([]string{"-fault", "nonsense"}, &out, &errOut); code != 2 {
		t.Errorf("malformed fault accepted (exit %d)", code)
	}
	// Fault and mix strings fail closed, before anything runs: a typo used to
	// build an all-honest chain (or fail only once the run started) and exit 0.
	for _, args := range [][]string{
		{"-mix", "no-such-protocol=1"},
		{"-fault", "c1=sillent"},
		{"-fault", "c1=silent,c77=silent"},
		{"-fault", "notaryX=silent"},
		{"-fault", "c1=silent,c1=crash"},
		{"-n", "0"}, // used to panic in core.NewTopology
		{"-n", "-1"},
		// Execution options out of range used to exit 0 silently or fail
		// inside the library.
		{"-exemplars", "-1"},
		{"-progress", "-1s"},
		{"-max-verify-miss", "-1"},
		{"-checkpoint-every", "-3", "-checkpoint", "f"},
		// Payment counts beyond the bounds xchain-serve shares: the first
		// used to die out of memory sizing the run.
		{"-payments", "1099511627776"},
		{"-payments", "1000001"},
		// Negatives the engine used to read as its defaults (or as no
		// fault window) and run.
		{"-burst", "-1", "-arrival", "burst", "-n", "4", "-payments", "50"},
		{"-burst-gap", "-1s", "-arrival", "burst", "-n", "4", "-payments", "50"},
		{"-spread", "-1", "-amount-dist", "uniform", "-n", "4", "-payments", "50"},
		{"-fault-from", "-1s", "-n", "4", "-payments", "50"},
		{"-fault-stagger", "-1s", "-n", "4", "-payments", "50"},
		{"-fault-outage", "-1s", "-n", "4", "-payments", "50"},
	} {
		out.Reset()
		errOut.Reset()
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 || !strings.Contains(errOut.String(), args[0]+": ") {
			t.Errorf("%v should be rejected before the run (exit %d, stdout %q, stderr %q)", args, code, out.String(), errOut.String())
		}
	}
	// A refused duration is named as it was typed, not in the request's
	// milliseconds.
	for _, c := range []struct{ flag, typed string }{
		{"-burst-gap", "-1s"},
		{"-queue", "-2s"},
		{"-fault-from", "-1.5s"},
		{"-fault-stagger", "-250ms"},
		{"-fault-outage", "-1m0s"},
		{"-manager-outage", "-1ms"},
	} {
		out.Reset()
		errOut.Reset()
		want := "xchain-traffic: " + c.flag + ": " + c.typed + " is not >= 0\n"
		if code := run([]string{c.flag, c.typed, "-arrival", "burst", "-n", "4", "-payments", "50"}, &out, &errOut); code != 2 || errOut.String() != want {
			t.Errorf("%s %s: exit %d, stderr %q, want %q", c.flag, c.typed, code, errOut.String(), want)
		}
	}
	if code := run([]string{"-arrival", "brust"}, &out, &errOut); code != 2 {
		t.Errorf("misspelled arrival kind should be rejected, not coerced (exit %d)", code)
	}
	// A negative commission makes hop amounts non-positive; it used to run to
	// completion with every payment booked as a liquidity rejection.
	out.Reset()
	errOut.Reset()
	code := run([]string{"-n", "4", "-payments", "200", "-commission", "-60", "-crypto", "hmac"}, &out, &errOut)
	if code != 2 || !strings.Contains(errOut.String(), "negative commission") || out.Len() != 0 {
		t.Errorf("negative commission should fail before any payment runs (exit %d, stdout %q, stderr %q)",
			code, out.String(), errOut.String())
	}
	if code := run([]string{"-h"}, &out, &errOut); code != 0 {
		t.Errorf("-h should print usage and exit 0 (exit %d)", code)
	}
}

// -progress prints at least one live progress line (the first fires
// immediately, a final one at stop) with the run's counters, without
// changing the summary or the exit code.
func TestRunProgress(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{
		"-n", "3", "-payments", "60", "-rate", "300", "-progress", "1h",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "traffic: 60 payments over 3 escrows") {
		t.Errorf("summary missing:\n%s", out.String())
	}
	progress := errOut.String()
	if strings.Count(progress, "progress: ") < 2 {
		t.Fatalf("want an immediate and a final progress line, got:\n%s", progress)
	}
	// The final line reflects the drained run.
	for _, want := range []string{"generated=60", "settled=", "p50=", "heap="} {
		if !strings.Contains(progress, want) {
			t.Errorf("progress output missing %q:\n%s", want, progress)
		}
	}
}

// A run with -checkpoint-every leaves a resumable snapshot behind, and
// resuming it with the same flags reproduces the uninterrupted summary
// byte for byte. Resuming under different flags is an actionable error,
// not a panic, and prints the snapshot's embedded config.
func TestRunCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	flags := []string{"-n", "3", "-payments", "400", "-rate", "1500", "-stream", "-crypto", "hmac", "-mix", "timelock=0.5,htlc=0.5"}

	var control, errOut strings.Builder
	if code := run(flags, &control, &errOut); code != 0 {
		t.Fatalf("control run failed (exit %d): %s", code, errOut.String())
	}

	// The periodic snapshot survives the completed run: the final write
	// happens at the last multiple of -checkpoint-every before the end.
	var out1 strings.Builder
	errOut.Reset()
	if code := run(append([]string{"-checkpoint", ckpt, "-checkpoint-every", "150"}, flags...), &out1, &errOut); code != 0 {
		t.Fatalf("checkpointed run failed (exit %d): %s", code, errOut.String())
	}
	if out1.String() != control.String() {
		t.Errorf("checkpoint cadence changed the summary:\n%s\n--\n%s", out1.String(), control.String())
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint left behind: %v", err)
	}

	var resumed strings.Builder
	errOut.Reset()
	if code := run(append([]string{"-resume", ckpt}, flags...), &resumed, &errOut); code != 0 {
		t.Fatalf("resume failed (exit %d): %s", code, errOut.String())
	}
	if resumed.String() != control.String() {
		t.Errorf("resumed summary differs from control:\n%s\n--\n%s", resumed.String(), control.String())
	}

	// Config drift: same snapshot, different seed.
	var out2, mismatch strings.Builder
	if code := run(append([]string{"-resume", ckpt, "-seed", "43"}, flags...), &out2, &mismatch); code != 1 {
		t.Fatalf("mismatched resume should exit 1, got %d: %s", code, mismatch.String())
	}
	for _, want := range []string{"different scenario/workload", `"seed": 42`} {
		if !strings.Contains(mismatch.String(), want) {
			t.Errorf("mismatch diagnostics missing %q:\n%s", want, mismatch.String())
		}
	}

	// A missing snapshot is a load error, not a fresh start.
	var out4, loadErr strings.Builder
	if code := run(append([]string{"-resume", filepath.Join(t.TempDir(), "nope.ckpt")}, flags...), &out4, &loadErr); code != 1 {
		t.Errorf("missing snapshot should exit 1, got %d", code)
	}
	if !strings.Contains(loadErr.String(), "cannot resume") {
		t.Errorf("load error not actionable:\n%s", loadErr.String())
	}
}

// A snapshot the version-1 format wrote, under the very flags it was taken
// with, is refused by its version: exit 1, nothing run.
func TestRunResumeRefusesV1(t *testing.T) {
	v1 := filepath.Join("..", "..", "internal", "checkpoint", "testdata", "traffic-run-v1-small.ckpt")
	var out, errOut strings.Builder
	if code := run([]string{"-resume", v1, "-n", "2", "-payments", "8", "-rate", "500", "-stream", "-crypto", "hmac"}, &out, &errOut); code != 1 {
		t.Fatalf("resume from a version-1 file exited %d, want 1:\n%s%s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 || !strings.Contains(errOut.String(), "unsupported format version") {
		t.Errorf("stdout %q, stderr %q: want nothing run and the version named", out.String(), errOut.String())
	}
}

// -crypto-stats prints the canonical sig metric names, so logs and /metrics
// scrapes agree on what the counters are called.
func TestRunCryptoStatsNames(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-n", "2", "-payments", "20", "-crypto", "hmac", "-crypto-stats"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{
		"xchain_sig_keygen_cache_hits_total=",
		"xchain_sig_verify_memo_misses_total=",
		"xchain_sig_rendered_total=0 ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("crypto-stats output missing %q:\n%s", want, out.String())
		}
	}
}

// The miss-rate gate runs on every backend: an honest run's verifications
// are all answered by the keyrings' issuance records (rate 0.000, the gate
// passes), while a forging Bob's certificates are misses that pay the backend
// and trip it.
func TestRunVerifyMissGateBothBackends(t *testing.T) {
	for _, backend := range []string{"hmac", "ed25519"} {
		args := []string{"-n", "2", "-payments", "20", "-crypto", backend, "-crypto-stats", "-max-verify-miss", "0.01"}
		// The counters are the process's: start each run below from zero.
		sig.ResetGlobalStats()
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("%s: honest run exited %d, stderr: %s", backend, code, errOut.String())
		}
		if !strings.Contains(out.String(), "(verify miss rate 0.000)") || strings.Contains(out.String(), "xchain_sig_verify_memo_hits_total=0 ") {
			t.Errorf("%s: an honest run should verify from the record alone:\n%s", backend, out.String())
		}

		sig.ResetGlobalStats()
		out.Reset()
		errOut.Reset()
		if code := run(append(args, "-fault", "c2=forge"), &out, &errOut); code != 1 {
			t.Fatalf("%s: forging run exited %d, want 1; stderr: %s", backend, code, errOut.String())
		}
		if !strings.Contains(errOut.String(), "verification miss rate 0.200 exceeds gate 0.010") {
			t.Errorf("%s: forged certificates did not trip the gate:\nstderr: %s\nstdout: %s", backend, errOut.String(), out.String())
		}
	}
}

// TestRunProfiles checks that -cpuprofile and -memprofile leave pprof files
// behind without changing the run's output, and that an unwritable profile
// path is a run failure, not a silent skip.
func TestRunProfiles(t *testing.T) {
	args := []string{"-n", "2", "-payments", "200", "-rate", "2000", "-stream", "-crypto", "hmac", "-workers", "1"}
	var plain, errOut strings.Builder
	if code := run(args, &plain, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}

	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	var out strings.Builder
	if code := run(append(args, "-cpuprofile", cpu, "-memprofile", mem), &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if out.String() != plain.String() {
		t.Errorf("profiling changed the output:\n%s\nwithout:\n%s", out.String(), plain.String())
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty (%v)", path, err)
		}
	}

	if code := run(append(args, "-memprofile", filepath.Join(dir, "no-such-dir", "mem.prof")), &out, &errOut); code != 1 {
		t.Errorf("unwritable -memprofile exited %d, want 1", code)
	}
}
