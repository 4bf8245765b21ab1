package netsim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/trace"
)

func probeNetwork(model DelayModel) (*sim.Engine, *Network, *[]string) {
	eng := sim.NewEngine(1)
	net := New(eng, model, trace.New())
	var delivered []string
	net.Register(&FuncNode{Id: "a"})
	net.Register(&FuncNode{Id: "b", Handler: func(from sim.PID, msg Message) {
		delivered = append(delivered, msg.Describe())
	}})
	return eng, net, &delivered
}

func TestSynchronousDeliversWithinBound(t *testing.T) {
	delta := 50 * sim.Millisecond
	eng, net, delivered := probeNetwork(Synchronous{Min: 1 * sim.Millisecond, Max: delta})
	for i := 0; i < 50; i++ {
		net.Send("a", "b", RawMessage{Label: "m"})
	}
	end, _ := eng.Run(0)
	if len(*delivered) != 50 {
		t.Fatalf("delivered %d of 50", len(*delivered))
	}
	if end > delta {
		t.Fatalf("a message took %v, beyond the bound %v", end, delta)
	}
	st := net.Stats()
	if st.Sent != 50 || st.Delivered != 50 || st.Dropped != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.TotalDelay <= 0 || st.MaxDelay > delta {
		t.Fatalf("delay stats %+v", st)
	}
}

func TestPartialSynchronyRespectsDeltaAfterGST(t *testing.T) {
	gst := 1 * sim.Second
	delta := 20 * sim.Millisecond
	model := PartialSynchrony{GST: gst, Delta: delta, MaxPreGST: 5 * sim.Second}
	eng := sim.NewEngine(3)
	env := Envelope{From: 0, To: 1, Msg: RawMessage{Label: "m"}}
	for i := 0; i < 200; i++ {
		env.SentAt = sim.Time(i) * 20 * sim.Millisecond
		d, drop := model.Delay(env, eng)
		if drop {
			t.Fatal("partial synchrony dropped a message")
		}
		if env.SentAt >= gst && d > delta {
			t.Fatalf("post-GST delay %v exceeds delta %v", d, delta)
		}
		if env.SentAt < gst && env.SentAt+d > gst+5*sim.Second+delta {
			t.Fatalf("pre-GST message delayed unboundedly: %v", d)
		}
	}
}

func TestPartialSynchronyAdversarialPreGSTCap(t *testing.T) {
	gst := 500 * sim.Millisecond
	delta := 10 * sim.Millisecond
	model := PartialSynchrony{
		GST: gst, Delta: delta,
		PreGST: func(env Envelope, eng *sim.Engine) sim.Time { return sim.Hour },
	}
	eng := sim.NewEngine(1)
	env := Envelope{SentAt: 0}
	d, _ := model.Delay(env, eng)
	if env.SentAt+d > gst+delta {
		t.Fatalf("pre-GST message not delivered by GST+Delta: %v", d)
	}
}

func TestAdversarialStrategy(t *testing.T) {
	model := Adversarial{
		Label: "drop-b",
		Strategy: func(env Envelope, eng *sim.Engine) (sim.Time, bool) {
			return 5, env.To == 1
		},
	}
	if model.Name() != "adversarial:drop-b" {
		t.Fatalf("name %q", model.Name())
	}
	eng, net, delivered := probeNetwork(model)
	net.Register(&FuncNode{Id: "c"})
	net.Send("a", "b", RawMessage{Label: "to-b"})
	net.Send("a", "c", RawMessage{Label: "to-c"})
	eng.Run(0)
	if len(*delivered) != 0 {
		t.Fatal("message to b should have been dropped")
	}
	if net.Stats().Dropped != 1 || net.Stats().Delivered != 1 {
		t.Fatalf("stats %+v", net.Stats())
	}
	// A nil strategy delivers promptly.
	if d, drop := (Adversarial{}).Delay(Envelope{}, eng); d != 1 || drop {
		t.Fatal("nil strategy should deliver in one tick")
	}
}

func TestUnknownRecipientIsDropped(t *testing.T) {
	eng, net, _ := probeNetwork(Synchronous{Min: 1, Max: 1})
	net.Send("a", "ghost", RawMessage{Label: "m"})
	eng.Run(0)
	if net.Stats().Dropped != 1 {
		t.Fatal("message to an unknown node was not counted as dropped")
	}
}

func TestBroadcastAndTap(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng, Synchronous{Min: 1, Max: 1}, nil)
	count := 0
	for _, id := range []string{"a", "b", "c", "d"} {
		id := id
		net.Register(&FuncNode{Id: id, Handler: func(sim.PID, Message) { count++ }})
	}
	taps := 0
	net.Tap = func(env Envelope, at sim.Time) { taps++ }
	net.Broadcast(net.PID("a"), RawMessage{Label: "hello"})
	eng.Run(0)
	if count != 3 || taps != 3 {
		t.Fatalf("broadcast reached %d nodes, tapped %d", count, taps)
	}
	if len(net.NodeIDs()) != 4 {
		t.Fatal("NodeIDs wrong")
	}
	if net.Model().Name() != "synchronous" || net.Engine() != eng || net.Trace() == nil {
		t.Fatal("accessors wrong")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng, Synchronous{Min: 1, Max: 1}, nil)
	net.Register(&FuncNode{Id: "a"})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	net.Register(&FuncNode{Id: "a"})
}

// Property: the synchronous model never exceeds its bound and never drops,
// for any min/max configuration and any seed.
func TestPropertySynchronousBound(t *testing.T) {
	f := func(minRaw, maxRaw uint16, seed int64) bool {
		min := sim.Time(minRaw)
		max := sim.Time(maxRaw)
		model := Synchronous{Min: min, Max: max}
		eng := sim.NewEngine(seed)
		d, drop := model.Delay(Envelope{}, eng)
		if drop {
			return false
		}
		upper := max
		if upper < min {
			upper = min
		}
		return d >= min && d <= upper
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNodeIDsSorted(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng, Synchronous{Min: 1, Max: 1}, nil)
	for _, id := range []string{"delta", "alpha", "charlie", "bravo"} {
		net.Register(&FuncNode{Id: id})
	}
	got := net.NodeIDs()
	want := []string{"alpha", "bravo", "charlie", "delta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NodeIDs = %v, want sorted %v", got, want)
		}
	}
}

// TestBroadcastDeterministic is the regression test for the map-iteration
// broadcast bug: per-message sequence numbers and delay draws follow send
// order, so broadcasting in Go map order made traces differ between runs.
// The same broadcast scenario — with nodes registered in different orders —
// must now produce byte-identical traces.
func TestBroadcastDeterministic(t *testing.T) {
	run := func(order []string) string {
		eng := sim.NewEngine(7)
		tr := trace.New()
		net := New(eng, Synchronous{Min: 1, Max: 20 * sim.Millisecond}, tr)
		for _, id := range order {
			net.Register(&FuncNode{Id: id})
		}
		net.Broadcast(net.PID("n0"), RawMessage{Label: "round"})
		net.Broadcast(net.PID("n3"), RawMessage{Label: "round"})
		eng.Run(0)
		return tr.String()
	}
	base := run([]string{"n0", "n1", "n2", "n3", "n4"})
	for i := 0; i < 10; i++ {
		if got := run([]string{"n4", "n2", "n0", "n3", "n1"}); got != base {
			t.Fatalf("broadcast trace depends on registration order:\n--- want ---\n%s--- got ---\n%s", base, got)
		}
	}
}

func TestMutedSendZeroAllocs(t *testing.T) {
	// Regression for the zero-allocation hot path: with the trace muted, a
	// Send (including its scheduled delivery) must not allocate — no label
	// formatting, no boxed events, no capturing closures.
	eng := sim.NewEngine(1)
	tr := trace.New()
	tr.Mute()
	net := New(eng, Synchronous{Min: 1, Max: 1}, tr)
	net.Register(&FuncNode{Id: "a"})
	net.Register(&FuncNode{Id: "b"})
	// Pre-boxed: a value-typed message would add one caller-side interface
	// boxing per Send, which is outside the network path under test.
	var msg Message = RawMessage{Label: "m"}
	// Warm-up fills the event and deliver-arg pools.
	for i := 0; i < 100; i++ {
		net.Send("a", "b", msg)
		eng.Run(0)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		net.Send("a", "b", msg)
		eng.Run(0)
	})
	if allocs != 0 {
		t.Fatalf("muted Send+deliver allocates %.1f objects per message, want 0", allocs)
	}
}

func TestMutedSendSkipsDescribe(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := trace.New()
	tr.Mute()
	net := New(eng, Synchronous{Min: 1, Max: 1}, tr)
	net.Register(&FuncNode{Id: "a"})
	net.Register(&FuncNode{Id: "b"})
	calls := 0
	net.Send("a", "b", countingMessage{calls: &calls})
	eng.Run(0)
	if calls != 0 {
		t.Fatalf("muted send called Describe %d times, want 0", calls)
	}
}

// TestRecordedSendDescribesOnce: a recording Send asks the message for its
// label once, and the send event, the deliver event and — for a recipient
// nobody registered — the drop event all carry that one label.
func TestRecordedSendDescribesOnce(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := trace.New()
	net := New(eng, Synchronous{Min: 1, Max: 1}, tr)
	net.Register(&FuncNode{Id: "a"})
	net.Register(&FuncNode{Id: "b"})
	calls := 0
	net.Send("a", "b", countingMessage{calls: &calls})
	eng.Run(0)
	if calls != 1 {
		t.Fatalf("delivered message: Describe called %d times, want 1", calls)
	}
	net.Send("a", "nobody", countingMessage{calls: &calls})
	eng.Run(0)
	if calls != 2 {
		t.Fatalf("dropped message: Describe called %d times over two sends, want 2", calls)
	}
	want := []trace.Event{
		{Kind: trace.KindSend, Actor: "a", Peer: "b", Label: "counted 1"},
		{Kind: trace.KindDeliver, Actor: "b", Peer: "a", Label: "counted 1"},
		{Kind: trace.KindSend, Actor: "a", Peer: "nobody", Label: "counted 2"},
		{Kind: trace.KindDrop, Actor: "a", Peer: "nobody", Label: "counted 2"},
	}
	got := tr.Events()
	if len(got) != len(want) {
		t.Fatalf("recorded %d events, want %d:\n%s", len(got), len(want), tr)
	}
	for i, w := range want {
		if g := got[i]; g.Kind != w.Kind || g.Actor != w.Actor || g.Peer != w.Peer || g.Label != w.Label {
			t.Errorf("event %d is %v, want [%s] %s -> %s %s", i, g, w.Kind, w.Actor, w.Peer, w.Label)
		}
	}
}

// countingMessage counts Describe invocations, and says so in its label: a
// second call would label its event differently.
type countingMessage struct{ calls *int }

func (c countingMessage) Describe() string {
	*c.calls++
	return fmt.Sprintf("counted %d", *c.calls)
}

// TestPostToUnregisteredPIDDropped: a message to a PID with no node — in the
// table or past its end — is dropped and counted, and the trace names the
// recipient the table holds.
func TestPostToUnregisteredPIDDropped(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := trace.New()
	net := New(eng, Synchronous{Min: 1, Max: 1}, tr)
	net.SetParticipants([]string{"a", "b", "c"})
	delivered := 0
	net.Attach(0, &FuncNode{Id: "a", Handler: func(sim.PID, Message) { delivered++ }})
	for _, to := range []sim.PID{1, 2, 9, sim.NoPID} {
		net.Post(0, to, RawMessage{Label: "m"})
	}
	net.Post(1, 0, RawMessage{Label: "m"})
	eng.Run(0)
	if st := net.Stats(); st.Sent != 5 || st.Dropped != 4 || st.Delivered != 1 || delivered != 1 {
		t.Fatalf("stats %+v, delivered %d: want 5 sent, 4 dropped, 1 delivered", st, delivered)
	}
	if !strings.Contains(tr.String(), "b") || net.Name(9) != "" || net.Name(sim.NoPID) != "" {
		t.Fatalf("names: trace\n%s", tr.String())
	}
}

// TestDuplicateAttachPanics: a PID takes one node, whether attached by PID
// or registered by name.
func TestDuplicateAttachPanics(t *testing.T) {
	for name, attach := range map[string]func(*Network){
		"attach":   func(n *Network) { n.Attach(0, &FuncNode{Id: "a"}) },
		"register": func(n *Network) { n.Register(&FuncNode{Id: "a"}) },
	} {
		net := New(sim.NewEngine(1), Synchronous{Min: 1, Max: 1}, nil)
		net.SetParticipants([]string{"a"})
		net.Attach(0, &FuncNode{Id: "a"})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a second node under PID 0 did not panic", name)
				}
			}()
			attach(net)
		}()
	}
}

// TestBroadcastNameOrderNotPIDOrder: with eleven participants c0..c10 at
// PIDs 0..10, index order and name order differ ("c10" sorts before "c2"),
// and Broadcast sends in name order.
func TestBroadcastNameOrderNotPIDOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng, Synchronous{Min: 1, Max: 1}, nil)
	var names []string
	for i := 0; i <= 10; i++ {
		names = append(names, fmt.Sprintf("c%d", i))
	}
	net.SetParticipants(names)
	var order []string
	for i, name := range names {
		net.Attach(sim.PID(i), &FuncNode{Id: name})
	}
	net.Tap = func(env Envelope, _ sim.Time) { order = append(order, net.Name(env.To)) }
	net.Broadcast(0, RawMessage{Label: "all"})
	eng.Run(0)
	want := []string{"c1", "c10", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9"}
	if !slices.Equal(order, want) {
		t.Fatalf("broadcast order %v, want %v", order, want)
	}
	if ids := net.NodeIDs(); ids[2] != "c10" || ids[3] != "c2" {
		t.Fatalf("NodeIDs %v not in name order", ids)
	}
}
