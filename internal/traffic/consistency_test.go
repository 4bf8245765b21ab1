package traffic

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// lockFailer is a protocol whose honest escrow e0 cannot place the lock —
// the defect property C exists to catch. No valid scenario provokes it in a
// real protocol (that is what C asserts), so the stub reports it where an
// escrow process would.
type lockFailer struct{ theorem core.Theorem }

func (lockFailer) Name() string                { return "lock-failer" }
func (p lockFailer) Guarantee() core.Guarantee { return core.Guarantee{Theorem: p.theorem} }

func (p lockFailer) Run(s core.Scenario) (*core.RunResult, error) {
	return p.RunIn(core.NewWorld(), s)
}

func (lockFailer) RunIn(w *core.World, s core.Scenario) (*core.RunResult, error) {
	if err := w.Reset(s); err != nil {
		return nil, err
	}
	w.Report(trace.Event{Kind: trace.KindViolation, Actor: core.EscrowID(0), Peer: core.CustomerID(0), Label: "lock-failed"}, nil)
	return w.Collect("lock-failer", 0, func(_ int, out *core.CustomerOutcome) { out.Terminated = true }), nil
}

// TestTrafficJudgesConsistency: the traffic oracle judges C on its muted
// sub-runs. An honest participant's lock failure is counted and sampled
// wherever the table owes C — always under Theorems 1 and 3, inside the
// envelope only for the baseline.
func TestTrafficJudgesConsistency(t *testing.T) {
	silent := core.FaultSpec{Silent: true}
	for _, tc := range []struct {
		name    string
		theorem core.Theorem
		s       core.Scenario
		want    int
	}{
		{"theorem 1", core.Theorem1, core.NewScenario(2, 3), 1},
		{"theorem 1 faulted", core.Theorem1, core.NewScenario(2, 3).SetFault(core.CustomerID(1), silent), 1},
		{"baseline in the envelope", core.Baseline, core.NewScenario(2, 3), 1},
		{"baseline faulted", core.Baseline, core.NewScenario(2, 3).SetFault(core.CustomerID(1), silent), 0},
	} {
		w := NewWorkload(1).WithMix(ProtocolShare{Name: "stub", Weight: 1})
		src, res := simulatedRun(tc.s, w, nil, map[string]core.Protocol{"stub": lockFailer{tc.theorem}})
		if err := executeTimeline(res, src, w, nil, true, 0, nil, RunMetrics{}, nil, nil); err != nil {
			t.Fatal(err)
		}
		if res.SafetyViolations != tc.want || len(res.SafetySample) != tc.want {
			t.Fatalf("%s: %d safety violations, sample %q, want %d", tc.name, res.SafetyViolations, res.SafetySample, tc.want)
		}
		if want := src.pays[0].ID + " C (stub): honest e0 hit lock-failed"; tc.want == 1 && res.SafetySample[0] != want {
			t.Fatalf("%s: sampled %q, want %q", tc.name, res.SafetySample[0], want)
		}
	}
}

// TestFiveProtocolByzantineMixConsistent: with C in the oracle, every
// protocol of the registry under a 10 % Byzantine plan still owes nothing it
// does not deliver.
func TestFiveProtocolByzantineMixConsistent(t *testing.T) {
	var mix []ProtocolShare
	for _, name := range []string{"timelock", "timelock-naive", "weaklive", "weaklive-committee", "htlc"} {
		mix = append(mix, ProtocolShare{Name: name, Weight: 1})
	}
	if len(mix) != len(DefaultProtocols()) {
		t.Fatalf("mix names %d of the registry's %d protocols", len(mix), len(DefaultProtocols()))
	}
	s := core.NewScenario(8, 9)
	s.Crypto = "hmac"
	w := NewWorkload(1500).WithMix(mix...)
	w.Arrival.Rate = 3000
	w.RandomSubPaths = true
	w.Faults = FaultPlan{Fraction: 0.10, From: 100 * sim.Millisecond, Stagger: 100 * sim.Millisecond, Outage: 200 * sim.Millisecond}
	res, err := Run(s, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultedPayments == 0 || res.SafetyViolations != 0 {
		t.Fatalf("%d faulted payments, %d safety violations:\n%s", res.FaultedPayments, res.SafetyViolations, res)
	}
}
