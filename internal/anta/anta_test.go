package anta

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ping/pong automata: a sends "ping", b replies "pong", a terminates; b also
// has a timeout transition that fires if no ping arrives in time.
func pingSpec(peer string) Spec {
	return Spec{
		ID:      "a",
		Initial: "send",
		States: []*State{
			{
				Name: "send", Kind: Output, ComputeDelay: 1 * sim.Millisecond, Next: "wait",
				Emit: func(ctx *Context) { ctx.Send(peer, netsim.RawMessage{Label: "ping"}) },
			},
			{
				Name: "wait", Kind: Input,
				Transitions: []*Transition{{
					Name: "r(pong)", To: "done",
					Match: func(ctx *Context, from string, msg netsim.Message) bool {
						return msg.Describe() == "pong"
					},
				}},
			},
			{Name: "done", Kind: Final},
		},
	}
}

func pongSpec(peer string, timeout sim.Time) Spec {
	return Spec{
		ID:      "b",
		Initial: "wait",
		States: []*State{
			{
				Name: "wait", Kind: Input,
				Transitions: []*Transition{
					{
						Name: "r(ping)", To: "reply",
						Match: func(ctx *Context, from string, msg netsim.Message) bool {
							return msg.Describe() == "ping"
						},
						Action: func(ctx *Context) { ctx.Set("got", ctx.Now()) },
					},
					{
						Name: "timeout", To: "gave-up",
						TimeoutAfter: func(ctx *Context) sim.Time { return timeout },
					},
				},
			},
			{
				Name: "reply", Kind: Output, ComputeDelay: 1 * sim.Millisecond, Next: "done",
				Emit: func(ctx *Context) { ctx.Send(peer, netsim.RawMessage{Label: "pong"}) },
			},
			{Name: "done", Kind: Final},
			{Name: "gave-up", Kind: Final},
		},
	}
}

func build(t *testing.T, timeout sim.Time, delay sim.Time) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine(1)
	tr := trace.New()
	net := netsim.New(eng, netsim.Synchronous{Min: delay, Max: delay}, tr)
	autos := NewNetwork()
	autos.Add(NewAutomaton(pingSpec("b"), clock.New(eng, 0, 0), net, tr))
	autos.Add(NewAutomaton(pongSpec("a", timeout), clock.New(eng, 0, 0), net, tr))
	return eng, autos
}

func TestPingPongCompletes(t *testing.T) {
	eng, autos := build(t, 1*sim.Second, 5*sim.Millisecond)
	autos.StartAll()
	eng.Run(0)
	if !autos.AllDone() {
		t.Fatal("automata did not all terminate")
	}
	a, _ := autos.Get("a")
	b, _ := autos.Get("b")
	if a.Current() != "done" || b.Current() != "done" {
		t.Fatalf("final states a=%s b=%s", a.Current(), b.Current())
	}
	if b.Var("got") == 0 {
		t.Fatal("clock variable assignment lost")
	}
	if len(autos.IDs()) != 2 {
		t.Fatal("network bookkeeping wrong")
	}
}

func TestTimeoutTransitionFires(t *testing.T) {
	// The ping is slower than b's timeout: b must give up.
	eng, autos := build(t, 2*sim.Millisecond, 50*sim.Millisecond)
	autos.StartAll()
	eng.Run(0)
	b, _ := autos.Get("b")
	if b.Current() != "gave-up" {
		t.Fatalf("b ended in %s, want gave-up", b.Current())
	}
}

func TestBufferedMessageConsumedOnStateEntry(t *testing.T) {
	// Deliver the ping before b enters its waiting state: the inbox must
	// buffer it and the transition must still fire.
	eng := sim.NewEngine(1)
	tr := trace.New()
	net := netsim.New(eng, netsim.Synchronous{Min: 1, Max: 1}, tr)
	b := NewAutomaton(pongSpec("a", sim.Second), clock.New(eng, 0, 0), net, tr)
	net.Register(&netsim.FuncNode{Id: "a"})
	net.Send("a", "b", netsim.RawMessage{Label: "ping"})
	eng.ScheduleAt(10*sim.Millisecond, "late-start", b.Start)
	eng.Run(0)
	if b.Current() != "done" {
		t.Fatalf("b ended in %s", b.Current())
	}
}

func TestCrashStopsAutomaton(t *testing.T) {
	eng, autos := build(t, sim.Second, 5*sim.Millisecond)
	b, _ := autos.Get("b")
	autos.StartAll()
	b.Crash()
	eng.Run(0)
	if b.Done() {
		t.Fatal("crashed automaton terminated")
	}
	if autos.AllDone() {
		t.Fatal("AllDone true despite a crashed automaton")
	}
}

func TestSpecValidation(t *testing.T) {
	good := pingSpec("b")
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]Spec{
		"empty id":        {Initial: "s", States: []*State{{Name: "s", Kind: Final}}},
		"missing initial": {ID: "x", Initial: "nope", States: []*State{{Name: "s", Kind: Final}}},
		"duplicate state": {ID: "x", Initial: "s", States: []*State{{Name: "s", Kind: Final}, {Name: "s", Kind: Final}}},
		"output no emit":  {ID: "x", Initial: "s", States: []*State{{Name: "s", Kind: Output, Next: "s"}}},
		"bad next": {ID: "x", Initial: "s", States: []*State{
			{Name: "s", Kind: Output, Emit: func(*Context) {}, Next: "ghost"},
		}},
		"bad transition target": {ID: "x", Initial: "s", States: []*State{
			{Name: "s", Kind: Input, Transitions: []*Transition{{Name: "t", To: "ghost", Match: func(*Context, string, netsim.Message) bool { return true }}}},
		}},
		"transition without trigger": {ID: "x", Initial: "s", States: []*State{
			{Name: "t", Kind: Final},
			{Name: "s", Kind: Input, Transitions: []*Transition{{Name: "t", To: "t"}}},
		}},
	}
	for name, spec := range cases {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: invalid spec accepted", name)
		}
	}
	if Input.String() != "input" || Output.String() != "output" || Final.String() != "final" {
		t.Error("StateKind rendering wrong")
	}
}

func TestDataStore(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := trace.New()
	net := netsim.New(eng, netsim.Synchronous{Min: 1, Max: 1}, tr)
	spec := Spec{
		ID: "d", Initial: "s",
		States: []*State{
			{Name: "s", Kind: Output, Emit: func(ctx *Context) {
				ctx.SetData("k", 42)
			}, Next: "f"},
			{Name: "f", Kind: Final},
		},
	}
	a := NewAutomaton(spec, clock.New(eng, 0, 0), net, tr)
	a.Start()
	eng.Run(0)
	if a.Data("k") != 42 {
		t.Fatal("data store lost the value")
	}
	if a.Clock() == nil || a.DoneAt() == 0 && a.Done() == false {
		t.Fatal("accessors wrong")
	}
}
