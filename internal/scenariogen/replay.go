package scenariogen

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/core"
)

// Expectation is what a replayed scenario must reproduce: its class, the
// protocol under test, and the exact set of failed properties (owed
// violations and expected theorem-shaped failures alike).
type Expectation struct {
	Class    Class           `json:"class"`
	Protocol string          `json:"protocol"`
	Violated []core.Property `json:"violated,omitempty"`
	// Buggy marks replays recording an oracle violation (a real bug kept as
	// a must-now-pass regression once fixed); the corpus's Theorem-2
	// counterexamples have Buggy=false.
	Buggy    bool `json:"buggy,omitempty"`
	Theorem2 bool `json:"theorem2,omitempty"`
	BobPaid  bool `json:"bobPaid,omitempty"`
}

// Replay is a self-contained counterexample: the scenario spec plus the
// outcome it must reproduce, byte-identically, on every run.
type Replay struct {
	Version int         `json:"version"`
	Note    string      `json:"note,omitempty"`
	Spec    Spec        `json:"spec"`
	Expect  Expectation `json:"expect"`
}

// replayVersion guards the file format.
const replayVersion = 1

// violatedSet collects the exact set of failed properties of an outcome.
func violatedSet(o *Outcome) []core.Property {
	set := map[core.Property]bool{}
	for _, p := range o.ExpectedFailures {
		set[p] = true
	}
	for _, v := range o.Violations {
		if v.Property != "" {
			set[v.Property] = true
		}
	}
	out := make([]core.Property, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NewReplay captures an outcome as a replay.
func NewReplay(o *Outcome, note string) Replay {
	return Replay{
		Version: replayVersion,
		Note:    note,
		Spec:    o.Spec,
		Expect: Expectation{
			Class:    o.Class,
			Protocol: o.Protocol,
			Violated: violatedSet(o),
			Buggy:    !o.OK(),
			Theorem2: o.Theorem2,
			BobPaid:  o.BobPaid,
		},
	}
}

// Verify re-runs the replay twice, on one standing pair of worlds, and checks
// that both runs reproduce the expectation exactly: same class, protocol,
// failed-property set, Theorem-2 flag and payment outcome, and the same run
// twice (sameRun: the determinism half of "byte-identical").
func (r Replay) Verify() error {
	if r.Version != replayVersion {
		return fmt.Errorf("scenariogen: replay version %d, want %d", r.Version, replayVersion)
	}
	ws := &worlds{}
	a := judge(r.Spec, ws)
	b := judge(r.Spec, ws)
	if d := sameRun(a, b); d.field != "" {
		return fmt.Errorf("scenariogen: replay is not deterministic: %s", d)
	}
	if a.Class != r.Expect.Class {
		return fmt.Errorf("scenariogen: replay class %s, expected %s", a.Class, r.Expect.Class)
	}
	if a.Protocol != r.Expect.Protocol {
		return fmt.Errorf("scenariogen: replay ran %q, expected %q", a.Protocol, r.Expect.Protocol)
	}
	if got, want := fmt.Sprint(violatedSet(a)), fmt.Sprint(r.Expect.Violated); got != want {
		return fmt.Errorf("scenariogen: replay violated %s, expected %s", got, want)
	}
	if a.OK() == r.Expect.Buggy {
		return fmt.Errorf("scenariogen: replay buggy=%v, expected %v (violations: %v)", !a.OK(), r.Expect.Buggy, a.Violations)
	}
	if a.Theorem2 != r.Expect.Theorem2 {
		return fmt.Errorf("scenariogen: replay theorem2=%v, expected %v", a.Theorem2, r.Expect.Theorem2)
	}
	if a.BobPaid != r.Expect.BobPaid {
		return fmt.Errorf("scenariogen: replay bobPaid=%v, expected %v", a.BobPaid, r.Expect.BobPaid)
	}
	return nil
}

// Save writes the replay as indented JSON.
func (r Replay) Save(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadReplay reads a replay file.
func LoadReplay(path string) (Replay, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Replay{}, err
	}
	var r Replay
	if err := json.Unmarshal(data, &r); err != nil {
		return Replay{}, fmt.Errorf("scenariogen: %s: %w", path, err)
	}
	if err := r.Spec.Validate(); err != nil {
		return Replay{}, fmt.Errorf("scenariogen: %s: %w", path, err)
	}
	return r, nil
}
