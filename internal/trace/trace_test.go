package trace

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func sample() *Trace {
	tr := New()
	tr.Add(1*sim.Millisecond, KindSend, "alice", "e0", "$")
	tr.Add(2*sim.Millisecond, KindDeliver, "e0", "alice", "$")
	tr.AddValue(3*sim.Millisecond, KindLock, "e0", "alice", "L1", 100)
	tr.Add(4*sim.Millisecond, KindTerminate, "alice", "", "done")
	tr.Add(5*sim.Millisecond, KindTerminate, "bob", "", "done")
	return tr
}

func TestAppendAssignsSequence(t *testing.T) {
	tr := sample()
	if tr.Len() != 5 {
		t.Fatalf("len %d", tr.Len())
	}
	for i, ev := range tr.Events() {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
}

func TestMute(t *testing.T) {
	tr := New()
	tr.Mute()
	if !tr.Muted() {
		t.Fatal("Muted() false")
	}
	tr.Add(1, KindSend, "a", "b", "x")
	if tr.Len() != 0 {
		t.Fatal("muted trace recorded an event")
	}
}

func TestRendering(t *testing.T) {
	tr := sample()
	out := tr.String()
	if !strings.Contains(out, "alice") || !strings.Contains(out, "value=100") {
		t.Fatalf("rendering incomplete:\n%s", out)
	}
	ev := Event{Seq: 1, At: 1, Kind: KindCert, Actor: "x", Peer: "y", Label: "chi", Extra: "detail"}
	if s := ev.String(); !strings.Contains(s, "chi") || !strings.Contains(s, "detail") {
		t.Fatalf("event rendering %q", s)
	}
}

func TestRecordingPredicate(t *testing.T) {
	tr := New()
	if !tr.Recording() {
		t.Fatal("fresh trace not recording")
	}
	tr.Mute()
	if tr.Recording() {
		t.Fatal("muted trace still recording")
	}
}

func TestMutedLazyNeverInvokesCallback(t *testing.T) {
	tr := New()
	tr.Mute()
	calls := 0
	label := func() string { calls++; return "expensive" }
	tr.AddLazy(1, KindSend, "a", "b", label)
	tr.AddValueLazy(2, KindLock, "e0", "a", label, 100)
	if calls != 0 {
		t.Fatalf("muted trace invoked the label callback %d times, want 0", calls)
	}
	if tr.Len() != 0 {
		t.Fatalf("muted trace recorded %d events", tr.Len())
	}
}

func TestLazyOnLiveTraceMatchesEager(t *testing.T) {
	// A trace must read identically whether events were added eagerly or
	// through the lazy entry points.
	eager, lazy := New(), New()
	eager.Add(1, KindSend, "alice", "e0", "$")
	eager.AddValue(2, KindLock, "e0", "alice", "L1", 100)
	eager.Add(3, KindTerminate, "alice", "", "done")

	calls := 0
	lazy.AddLazy(1, KindSend, "alice", "e0", func() string { calls++; return "$" })
	lazy.AddValueLazy(2, KindLock, "e0", "alice", func() string { calls++; return "L1" }, 100)
	lazy.AddLazy(3, KindTerminate, "alice", "", func() string { calls++; return "done" })
	if calls != 3 {
		t.Fatalf("live trace invoked %d label callbacks, want 3", calls)
	}
	if eager.String() != lazy.String() {
		t.Fatalf("lazy trace differs from eager:\n%s\nvs\n%s", eager.String(), lazy.String())
	}
	if ev := lazy.Events()[1]; ev.Kind != KindLock || ev.Label != "L1" || ev.Value != 100 {
		t.Fatalf("lazily-built lock event wrong: %+v", ev)
	}
}

func TestLazyNilCallback(t *testing.T) {
	tr := New()
	ev := tr.AddLazy(1, KindAnnotation, "a", "", nil)
	if ev.Label != "" || tr.Len() != 1 {
		t.Fatal("nil label callback should record an empty label")
	}
}
