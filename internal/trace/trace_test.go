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
