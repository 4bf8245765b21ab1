package traffic

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// resumeAfterInterrupt runs (s, w, cfg) interrupted at payment `at`, checks
// the interruption is reported and the snapshot lands on disk, then resumes
// from the snapshot and returns the completed result alongside the snapshot.
func resumeAfterInterrupt(t *testing.T, s core.Scenario, w Workload, cfg Config, at int) (*Result, *RunSnapshot) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	icfg := cfg
	icfg.InterruptAt = at
	icfg.CheckpointPath = path
	if res, err := RunWith(s, w, icfg); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned (%v, %v), want ErrInterrupted", res, err)
	}
	sn, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if sn.NextIndex != at {
		t.Fatalf("snapshot resumes at payment %d, want %d", sn.NextIndex, at)
	}
	rcfg := cfg
	rcfg.Resume = sn
	res, err := RunWith(s, w, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, sn
}

// assertSameRun pins byte-identical equivalence between an uninterrupted
// reference and an interrupted-and-resumed run.
func assertSameRun(t *testing.T, ref, got *Result) {
	t.Helper()
	if gs, rs := got.String(), ref.String(); gs != rs {
		t.Fatalf("resumed run differs from uninterrupted:\n--- uninterrupted ---\n%s--- resumed ---\n%s", rs, gs)
	}
	if !reflect.DeepEqual(got.Payments, ref.Payments) {
		t.Fatal("per-payment records differ after resume")
	}
	if !reflect.DeepEqual(got.Exemplars, ref.Exemplars) {
		t.Fatalf("exemplar reservoirs differ after resume:\n%v\n%v", got.Exemplars, ref.Exemplars)
	}
	if !reflect.DeepEqual(got.Book.SnapshotWealth(), ref.Book.SnapshotWealth()) {
		t.Fatal("final wealth distribution differs after resume")
	}
	if got.AuditErr != nil || got.CascadeErr != nil {
		t.Fatalf("resumed run failed accounting: audit=%v cascade=%v", got.AuditErr, got.CascadeErr)
	}
}

// TestCheckpointEquivalence is the subsystem's oracle: a run interrupted at
// an adversarially chosen payment count and resumed from its snapshot must
// produce a Result byte-identical to the uninterrupted run — across worker
// counts, honest and Byzantine plans, liquidity-bounded queues (shallow and
// a hundred deep) and exemplar reservoirs (TestExecutionLattice's resume columns cover the retention
// policies on every lattice input). Interrupt points are
// chosen to land mid-chunk (517 is inside the second pipeline chunk), at the
// very first boundary, and one payment before the end.
func TestCheckpointEquivalence(t *testing.T) {
	s := core.NewScenario(6, 7)
	base := NewWorkload(1200)
	base.Arrival.Rate = 2000
	base = base.WithMix(mixed...)

	t.Run("honest-stream", func(t *testing.T) {
		for _, workers := range []int{1, 4} {
			cfg := Config{Workers: workers, Stream: true, KeepPayments: true, Crypto: "hmac"}
			ref, err := RunWith(s, base, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, at := range []int{1, 517, 1199} {
				got, _ := resumeAfterInterrupt(t, s, base, cfg, at)
				assertSameRun(t, ref, got)
			}
		}
	})

	t.Run("queue-expiry", func(t *testing.T) {
		w := base.WithLiquidity(500).WithQueue(250*sim.Millisecond, 0)
		cfg := Config{Workers: 2, Stream: true, KeepPayments: true, Crypto: "hmac"}
		ref, err := RunWith(s, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Dropped == 0 || ref.QueuedCount == 0 {
			t.Fatalf("workload not contended enough to exercise the queue: %+v", ref)
		}
		got, sn := resumeAfterInterrupt(t, s, w, cfg, 600)
		if len(sn.Queue) == 0 {
			t.Fatal("interrupt point never caught payments waiting in the queue")
		}
		assertSameRun(t, ref, got)
	})

	t.Run("liquidity-bound-deep-queue", func(t *testing.T) {
		// Cut while well over a hundred payments wait, on a chain whose silent
		// connectors keep refunding: the resumed run must file every waiter
		// under the account that refuses it in the restored book, give the ones
		// later admitted the attempt number the uninterrupted run gave them,
		// and refuse the snapshot once a waiter's every hop is flush.
		s := core.NewScenario(6, 11).
			SetFault(core.CustomerID(2), core.FaultSpec{Silent: true}).
			SetFault(core.CustomerID(4), core.FaultSpec{Silent: true})
		w := NewWorkload(2000).WithLiquidity(3000).WithQueue(1500*sim.Millisecond, 0)
		w.Arrival.Rate = 3000
		w.RandomSubPaths = true
		cfg := Config{Workers: 2, Stream: true, KeepPayments: true, Crypto: "hmac"}
		ref, err := RunWith(s, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, sn := resumeAfterInterrupt(t, s, w, cfg, 900)
		if len(sn.Queue) < 100 {
			t.Fatalf("interrupt point caught %d payments waiting, want at least 100", len(sn.Queue))
		}
		readmitted := 0
		for _, idx := range sn.Queue {
			if st := ref.Payments[idx].Status; st == StatusOK || st == StatusProtocolFailed {
				readmitted++
			}
		}
		if readmitted == 0 {
			t.Fatal("no payment waiting at the cut was admitted after it")
		}
		assertSameRun(t, ref, got)

		for i := range sn.Ledgers {
			for a := range sn.Ledgers[i].Accounts {
				sn.Ledgers[i].Accounts[a].Balance = 1 << 40
			}
		}
		rcfg := cfg
		rcfg.Resume = sn
		if res, err := RunWith(s, w, rcfg); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("resume with every waiter admissible returned (%v, %v), want ErrBadSnapshot", res, err)
		}
	})

	t.Run("byzantine-mid-onset", func(t *testing.T) {
		w := base.WithFaults(FaultPlan{
			Fraction: 0.3,
			From:     50 * sim.Millisecond,
			Stagger:  200 * sim.Millisecond,
			Outage:   400 * sim.Millisecond,
		})
		for _, workers := range []int{1, 4} {
			cfg := Config{Workers: workers, Stream: true, KeepPayments: true, Crypto: "hmac"}
			ref, err := RunWith(s, w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ref.FaultedPayments == 0 {
				t.Fatalf("fault plan never touched a payment: %+v", ref)
			}
			got, sn := resumeAfterInterrupt(t, s, w, cfg, 300)
			if len(sn.Marks) == 0 {
				t.Fatal("interrupt point never caught pending Byzantine marks")
			}
			assertSameRun(t, ref, got)
		}
	})

	t.Run("exemplar-reservoir", func(t *testing.T) {
		cfg := Config{Workers: 2, Stream: true, Exemplars: 16, Crypto: "hmac"}
		ref, err := RunWith(s, base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.Exemplars) != 16 {
			t.Fatalf("reservoir retained %d exemplars, want 16", len(ref.Exemplars))
		}
		// 700 is past the reservoir-fill point, so the restored RNG must
		// resume mid-replacement-stream.
		got, _ := resumeAfterInterrupt(t, s, base, cfg, 700)
		assertSameRun(t, ref, got)
	})

	t.Run("control-interrupt", func(t *testing.T) {
		// Control pre-tripped: the run must stop at the first boundary.
		ctl := &Control{}
		ctl.Interrupt()
		path := filepath.Join(t.TempDir(), "run.ckpt")
		cfg := Config{Workers: 1, Stream: true, KeepPayments: true, Crypto: "hmac",
			Control: ctl, CheckpointPath: path}
		if _, err := RunWith(s, base, cfg); !errors.Is(err, ErrInterrupted) {
			t.Fatalf("controlled run returned %v, want ErrInterrupted", err)
		}
		sn, err := LoadSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		if sn.NextIndex != 1 {
			t.Fatalf("pre-tripped control stopped at payment %d, want 1", sn.NextIndex)
		}
	})
}

// TestCheckpointPeriodicWrites pins the periodic cadence: a completed run
// with CheckpointEvery leaves the last periodic snapshot on disk, and
// resuming it reproduces the run.
func TestCheckpointPeriodicWrites(t *testing.T) {
	s := core.NewScenario(4, 21)
	w := NewWorkload(900)
	w.Arrival.Rate = 1500
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := Config{Workers: 2, Stream: true, KeepPayments: true, Crypto: "hmac",
		CheckpointEvery: 250, CheckpointPath: path}
	ref, err := RunWith(s, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if sn.NextIndex != 750 {
		t.Fatalf("last periodic snapshot at payment %d, want 750", sn.NextIndex)
	}
	rcfg := cfg
	rcfg.Resume = sn
	got, err := RunWith(s, w, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, ref, got)
}

// TestCheckpointWriteFailureTolerated pins what a storage fault may cost a
// run: a periodic snapshot that cannot be written is counted and skipped —
// the run completes with the uninterrupted Result and the snapshot already on
// disk still loads — while the final snapshot of an interrupted run, the
// only copy of the work since, fails the run when it cannot be written.
func TestCheckpointWriteFailureTolerated(t *testing.T) {
	s := core.NewScenario(4, 21)
	w := NewWorkload(900)
	w.Arrival.Rate = 1500
	cfg := Config{Workers: 2, Stream: true, KeepPayments: true, Crypto: "hmac"}
	ref, err := RunWith(s, w, cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, row := range []struct {
		name string
		// state returns the checkpoint path inside a state directory that
		// refuses new files, and whether a snapshot was left there first.
		state func(t *testing.T) (path string, seeded bool)
	}{
		{"read-only-dir", func(t *testing.T) (string, bool) {
			dir := filepath.Join(t.TempDir(), "state")
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "run.ckpt")
			icfg := cfg
			icfg.InterruptAt, icfg.CheckpointPath = 100, path
			if _, err := RunWith(s, w, icfg); !errors.Is(err, ErrInterrupted) {
				t.Fatalf("seeding run returned %v", err)
			}
			if err := os.Chmod(dir, 0o555); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { os.Chmod(dir, 0o755) }) //nolint:errcheck // lets TempDir clean up
			if probe, err := os.CreateTemp(dir, "probe"); err == nil {
				probe.Close()
				os.Remove(probe.Name()) //nolint:errcheck // best-effort
				t.Skip("this user writes through directory permissions (root)")
			}
			return path, true
		}},
		{"dir-gone", func(t *testing.T) (string, bool) {
			return filepath.Join(t.TempDir(), "gone", "run.ckpt"), false
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			path, seeded := row.state(t)
			reg := metrics.NewRegistry()
			pcfg := cfg
			pcfg.Metrics, pcfg.CheckpointEvery, pcfg.CheckpointPath = reg, 250, path
			got, err := RunWith(s, w, pcfg)
			if err != nil {
				t.Fatalf("run failed over unwritable periodic checkpoints: %v", err)
			}
			assertSameRun(t, ref, got)
			if n := reg.Counter(MetricCheckpointWriteErrors, "").Value(); n != 3 {
				t.Errorf("%s = %d, want 3 (payments 250, 500, 750)", MetricCheckpointWriteErrors, n)
			}
			if seeded {
				if sn, err := LoadSnapshot(path); err != nil || sn.NextIndex != 100 {
					t.Errorf("previous snapshot did not survive the failed writes: %+v, %v", sn, err)
				}
			}

			icfg := cfg
			icfg.InterruptAt, icfg.CheckpointPath = 300, path
			if _, err := RunWith(s, w, icfg); err == nil || errors.Is(err, ErrInterrupted) {
				t.Fatalf("interrupted run that could not write its final snapshot returned %v, want the write error", err)
			}
		})
	}
}

// TestCheckpointConfigMismatch pins satellite 6's contract: resuming a
// snapshot under a different configuration is a typed, actionable error —
// carrying the snapshot's embedded configuration — never a silent
// half-resume or a panic.
func TestCheckpointConfigMismatch(t *testing.T) {
	s := core.NewScenario(3, 7)
	w := NewWorkload(200)
	cfg := Config{Workers: 1, Stream: true, KeepPayments: true, Crypto: "hmac"}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	icfg := cfg
	icfg.InterruptAt = 100
	icfg.CheckpointPath = path
	if _, err := RunWith(s, w, icfg); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v", err)
	}
	sn, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, s core.Scenario, w Workload, cfg Config) {
		t.Helper()
		cfg.Resume = sn
		_, err := RunWith(s, w, cfg)
		var mm *ConfigMismatchError
		if !errors.As(err, &mm) {
			t.Fatalf("mismatched resume returned %v, want *ConfigMismatchError", err)
		}
		if mm.SnapshotHash == mm.RunHash || mm.SnapshotHash == "" {
			t.Fatalf("mismatch hashes not distinct: %+v", mm)
		}
		if !strings.Contains(mm.EmbeddedConfig(), "\"seed\": 7") {
			t.Fatalf("embedded config lost the snapshot's seed:\n%s", mm.EmbeddedConfig())
		}
	}
	t.Run("different-seed", func(t *testing.T) { check(t, core.NewScenario(3, 8), w, cfg) })
	t.Run("different-workload", func(t *testing.T) {
		w2 := w
		w2.Arrival.Rate = 999
		check(t, s, w2, cfg)
	})
	t.Run("different-mode", func(t *testing.T) {
		cfg2 := cfg
		cfg2.Stream = false
		check(t, s, w, cfg2)
	})
}

// goldenTrafficSnapshot is the committed mid-run snapshot pinning the
// traffic payload format (the envelope format is pinned separately in
// internal/checkpoint). Regenerate with XCHAIN_REGEN_GOLDEN=1 after a
// deliberate format change, and bump checkpoint.Version when doing so.
const goldenTrafficSnapshot = "../checkpoint/testdata/traffic-run-v1.ckpt"

func goldenTrafficRun() (core.Scenario, Workload, Config) {
	s := core.NewScenario(3, 11)
	w := NewWorkload(400)
	w.Arrival.Rate = 500
	w = w.WithMix(mixed...)
	cfg := Config{Workers: 1, Stream: true, KeepPayments: true, Crypto: "hmac"}
	return s, w, cfg
}

// TestCheckpointGoldenSnapshot regenerates the golden run in-process,
// asserts the bytes have not drifted, and resumes the committed file to the
// same Result as an uninterrupted run — so a checkpoint written by a past
// build keeps resuming byte-identically on every future build.
func TestCheckpointGoldenSnapshot(t *testing.T) {
	s, w, cfg := goldenTrafficRun()
	path := filepath.Join(t.TempDir(), "golden.ckpt")
	icfg := cfg
	icfg.InterruptAt = 200
	icfg.CheckpointPath = path
	if _, err := RunWith(s, w, icfg); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("golden run returned %v", err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("XCHAIN_REGEN_GOLDEN") == "1" {
		if err := os.WriteFile(goldenTrafficSnapshot, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(goldenTrafficSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("golden traffic snapshot drifted from what this build writes; " +
			"if the format change is deliberate, bump checkpoint.Version and regenerate with XCHAIN_REGEN_GOLDEN=1")
	}

	sn, err := LoadSnapshot(goldenTrafficSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Resume = sn
	res, err := RunWith(s, w, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunWith(s, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, ref, res)
}

// crashRun is the workload of the SIGKILL harness, shared by parent and
// child so both derive the identical configuration fingerprint.
func crashRun() (core.Scenario, Workload, Config) {
	s := core.NewScenario(4, 99)
	w := NewWorkload(6000)
	w.Arrival.Rate = 4000
	w = w.WithMix(mixed...)
	cfg := Config{Stream: true, KeepPayments: true, Crypto: "hmac"}
	return s, w, cfg
}

// TestCheckpointCrashResume proves recovery from real process death: a child
// process (this test re-executed with XCHAIN_CRASH_CHILD=1) runs the
// workload with periodic checkpoints and is SIGKILLed mid-run — no deferred
// cleanup, no flush. The parent resumes from the newest complete snapshot
// and must reach the exact Result of an uninterrupted control run. Because
// checkpoint writes are temp-file + rename, the kill can land mid-write and
// the newest complete snapshot still loads.
func TestCheckpointCrashResume(t *testing.T) {
	if os.Getenv("XCHAIN_CRASH_CHILD") == "1" {
		s, w, cfg := crashRun()
		cfg.CheckpointEvery = 400
		cfg.CheckpointPath = os.Getenv("XCHAIN_CRASH_PATH")
		if _, err := RunWith(s, w, cfg); err != nil {
			t.Fatal(err)
		}
		return
	}

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	cmd := exec.Command(os.Args[0], "-test.run=TestCheckpointCrashResume$")
	cmd.Env = append(os.Environ(), "XCHAIN_CRASH_CHILD=1", "XCHAIN_CRASH_PATH="+ckpt)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill the child the moment it has checkpointed past mid-run. If the
	// child outruns the poll and finishes first, the last periodic snapshot
	// is still on disk and the resume below remains a valid recovery.
	deadline := time.Now().Add(90 * time.Second)
	for {
		if sn, err := LoadSnapshot(ckpt); err == nil && sn.NextIndex >= 2800 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill() //nolint:errcheck // best-effort teardown
			t.Fatal("child never reached a mid-run checkpoint")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cmd.Process.Kill() //nolint:errcheck // child may have already exited
	cmd.Wait()         //nolint:errcheck // non-zero exit is the point

	sn, err := LoadSnapshot(ckpt)
	if err != nil {
		t.Fatalf("no loadable snapshot survived the kill: %v", err)
	}
	if sn.NextIndex <= 0 || sn.NextIndex >= 6000 {
		t.Fatalf("surviving snapshot at payment %d, want mid-run", sn.NextIndex)
	}
	t.Logf("child killed; resuming from payment %d", sn.NextIndex)

	s, w, cfg := crashRun()
	rcfg := cfg
	rcfg.Resume = sn
	got, err := RunWith(s, w, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunWith(s, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, ref, got)
}

// TestCheckpointValidation pins the configuration errors of the checkpoint
// knobs.
func TestCheckpointValidation(t *testing.T) {
	s := core.NewScenario(2, 1)
	w := NewWorkload(10)
	if _, err := RunWith(s, w, Config{CheckpointEvery: 5}); err == nil {
		t.Error("CheckpointEvery without CheckpointPath accepted")
	}
	if _, err := RunWith(s, w, Config{CheckpointEvery: -1}); err == nil {
		t.Error("negative CheckpointEvery accepted")
	}
	sn := &RunSnapshot{NextIndex: 999, ConfigHash: "nope"}
	if _, err := RunWith(s, w, Config{Resume: sn}); err == nil {
		t.Error("foreign snapshot accepted")
	}
}
