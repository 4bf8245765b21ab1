package anta

import (
	"slices"
	"testing"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ping/pong automata: a sends "ping", b replies "pong", a terminates; b also
// has a timeout transition that fires if no ping arrives in time. What a run
// fixes — the peer, b's timeout, what an emitter saw — is the adapter.
// names is every test's participant table; pid finds a name's PID in it.
var names = []string{"a", "b", "d", "x", "y", "nobody"}

func pid(name string) sim.PID { return sim.PID(slices.Index(names, name)) }

type peer struct {
	to      sim.PID
	timeout sim.Time
	emitted int
}

func self(ctx *Context) *peer { return ctx.Adapter().(*peer) }

func says(label string) func(*Context, sim.PID, netsim.Message) bool {
	return func(_ *Context, _ sim.PID, msg netsim.Message) bool { return msg.Describe() == label }
}

func emits(label string) func(*Context) {
	msg := netsim.Message(netsim.RawMessage{Label: label}) // boxed once
	return func(ctx *Context) {
		self(ctx).emitted++
		ctx.Send(self(ctx).to, msg)
	}
}

const varGot = 0

var pingSpec = Spec{
	Name:    "ping",
	Initial: "send",
	States: []State{
		{Name: "send", Kind: Output, Next: "wait", Emit: emits("ping")},
		{Name: "wait", Kind: Input, Transitions: []Transition{{Name: "r(pong)", To: "done", Match: says("pong")}}},
		{Name: "done", Kind: Final},
	},
}

var pongSpec = Spec{
	Name:    "pong",
	Initial: "wait",
	Vars:    []string{varGot: "got"},
	States: []State{
		{Name: "wait", Kind: Input, Transitions: []Transition{
			{
				Name: "r(ping)", To: "reply", Match: says("ping"),
				Action: func(ctx *Context) { ctx.Set(varGot, ctx.Now()) },
			},
			{
				Name: "timeout", To: "gave-up",
				TimeoutAfter: func(ctx *Context) sim.Time { return self(ctx).timeout },
			},
		}},
		{Name: "reply", Kind: Output, Next: "done", Emit: emits("pong")},
		{Name: "done", Kind: Final},
		{Name: "gave-up", Kind: Final},
	},
}

var ping, pong = MustCompile(pingSpec), MustCompile(pongSpec)

// bench is one engine, network and trace, as a run has them.
type bench struct {
	eng *sim.Engine
	net *netsim.Network
	tr  *trace.Trace
}

func newBench(delay sim.Time) *bench {
	eng := sim.NewEngine(1)
	tr := trace.New()
	net := netsim.New(eng, netsim.Synchronous{Min: delay, Max: delay}, tr)
	net.SetParticipants(names)
	return &bench{eng: eng, net: net, tr: tr}
}

// reset starts the next run on the same engine, network and trace.
func (b *bench) reset() {
	b.eng.Reset(1)
	b.tr.Reset(false)
	b.net.Reset(b.net.Model())
	b.net.SetParticipants(names)
}

// bind resets a to run prog as id.
func (b *bench) bind(a *Automaton, prog *Program, id string, p *peer) *Automaton {
	a.Reset(prog, id, pid(id), p, sim.Millisecond, clock.New(b.eng, 0, 0), b.net, b.tr)
	return a
}

// build is the ping/pong pair a and b on a new bench.
func build(timeout, delay sim.Time) (*bench, *Automaton, *Automaton) {
	w := newBench(delay)
	a := w.bind(new(Automaton), ping, "a", &peer{to: pid("b")})
	b := w.bind(new(Automaton), pong, "b", &peer{to: pid("a"), timeout: timeout})
	return w, a, b
}

func TestPingPongCompletes(t *testing.T) {
	w, a, b := build(1*sim.Second, 5*sim.Millisecond)
	a.Start()
	b.Start()
	w.eng.Run(0)
	if !a.Done() || !b.Done() {
		t.Fatal("automata did not all terminate")
	}
	if a.Current() != "done" || b.Current() != "done" {
		t.Fatalf("final states a=%s b=%s", a.Current(), b.Current())
	}
	if b.Var(varGot) == 0 {
		t.Fatal("clock variable assignment lost")
	}
	if a.DoneAt() == 0 || a.ID() != "a" {
		t.Fatal("accessors wrong")
	}
}

func TestTimeoutTransitionFires(t *testing.T) {
	// The ping is slower than b's timeout: b must give up.
	w, a, b := build(2*sim.Millisecond, 50*sim.Millisecond)
	a.Start()
	b.Start()
	w.eng.Run(0)
	if b.Current() != "gave-up" {
		t.Fatalf("b ended in %s, want gave-up", b.Current())
	}
}

// TestEarlyWakeUpRearms: a wake-up that finds its guard not yet true — the
// deadline moved, as drift rounding can move it by a tick — is armed again
// for the new deadline instead of firing or being lost.
func TestEarlyWakeUpRearms(t *testing.T) {
	w := newBench(1)
	p := &peer{to: pid("a"), timeout: 2 * sim.Millisecond}
	b := w.bind(new(Automaton), pong, "b", p)
	b.Start()
	w.eng.ScheduleArgAt(sim.Millisecond, "extend", func(any) { p.timeout = 4 * sim.Millisecond }, nil)
	w.eng.RunUntil(3*sim.Millisecond, 0)
	if b.Done() || len(b.pending) != 2 {
		t.Fatalf("at 3ms: done=%v with %d wake-ups scheduled, want the fired one and its successor", b.Done(), len(b.pending))
	}
	w.eng.Run(0)
	if b.Current() != "gave-up" || b.DoneAt() < 4*sim.Millisecond {
		t.Fatalf("b ended in %q at %v, want gave-up at 4ms", b.Current(), b.DoneAt())
	}
}

func TestBufferedMessageConsumedOnStateEntry(t *testing.T) {
	// Deliver the ping before b enters its waiting state: the inbox must
	// buffer it and the transition must still fire.
	w := newBench(1)
	b := w.bind(new(Automaton), pong, "b", &peer{to: pid("a"), timeout: sim.Second})
	w.net.Register(&netsim.FuncNode{Id: "a"})
	w.net.Send("a", "b", netsim.RawMessage{Label: "ping"})
	w.eng.ScheduleArgAt(10*sim.Millisecond, "late-start", func(any) { b.Start() }, nil)
	w.eng.Run(0)
	if b.Current() != "done" {
		t.Fatalf("b ended in %s", b.Current())
	}
}

func TestCrashStopsAutomaton(t *testing.T) {
	w, a, b := build(sim.Second, 5*sim.Millisecond)
	a.Start()
	b.Start()
	b.Crash()
	w.eng.Run(0)
	if b.Done() {
		t.Fatal("crashed automaton terminated")
	}
	if a.Done() {
		t.Fatal("a terminated without b's pong")
	}
}

func TestSpecValidation(t *testing.T) {
	if err := pingSpec.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]Spec{
		"empty name":      {Initial: "s", States: []State{{Name: "s", Kind: Final}}},
		"missing initial": {Name: "x", Initial: "nope", States: []State{{Name: "s", Kind: Final}}},
		"duplicate state": {Name: "x", Initial: "s", States: []State{{Name: "s", Kind: Final}, {Name: "s", Kind: Final}}},
		"output no emit":  {Name: "x", Initial: "s", States: []State{{Name: "s", Kind: Output, Next: "s"}}},
		"bad next": {Name: "x", Initial: "s", States: []State{
			{Name: "s", Kind: Output, Emit: func(*Context) {}, Next: "ghost"},
		}},
		"bad transition target": {Name: "x", Initial: "s", States: []State{
			{Name: "s", Kind: Input, Transitions: []Transition{{Name: "t", To: "ghost", Match: says("")}}},
		}},
		"transition without trigger": {Name: "x", Initial: "s", States: []State{
			{Name: "t", Kind: Final},
			{Name: "s", Kind: Input, Transitions: []Transition{{Name: "t", To: "t"}}},
		}},
	}
	for name, spec := range cases {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: invalid spec accepted", name)
		}
		if prog, err := Compile(spec); err == nil || prog != nil {
			t.Errorf("%s: invalid spec compiled", name)
		}
	}
	if Input.String() != "input" || Output.String() != "output" || Final.String() != "final" {
		t.Error("StateKind rendering wrong")
	}
}

// TestProgramIsACopy: a program does not see later writes to the spec it was
// compiled from.
func TestProgramIsACopy(t *testing.T) {
	spec := Spec{Name: "x", Initial: "s", States: []State{
		{Name: "s", Kind: Input, Transitions: []Transition{{Name: "t", To: "f", Match: says("go")}}},
		{Name: "f", Kind: Final},
	}}
	prog := MustCompile(spec)
	spec.States[0].Transitions[0].Match = says("never")
	spec.States[1].Name = "renamed"

	w := newBench(1)
	a := w.bind(new(Automaton), prog, "x", nil)
	a.Start()
	a.Deliver(sim.NoPID, netsim.RawMessage{Label: "go"})
	if !a.Done() || a.Current() != "f" {
		t.Fatalf("the compiled program changed with its spec: in %q, done=%v", a.Current(), a.Done())
	}
}

func TestAdapter(t *testing.T) {
	w := newBench(1)
	p := &peer{to: pid("nobody")}
	a := w.bind(new(Automaton), ping, "d", p)
	a.Start()
	w.eng.Run(0)
	if p.emitted != 1 {
		t.Fatalf("the emitter saw another adapter: emitted %d times", p.emitted)
	}
}

// run is what a run leaves behind, its trace apart.
type run struct {
	fired    uint64
	a, b     string
	got      sim.Time
	aEmitted int
}

// pingPong runs a as ping and b as pong, recorded, to the end.
func pingPong(w *bench, a, b *Automaton, timeout sim.Time) (run, []string) {
	pa := &peer{to: pid("b")}
	w.bind(a, ping, "a", pa)
	w.bind(b, pong, "b", &peer{to: pid("a"), timeout: timeout})
	a.Start()
	b.Start()
	_, fired := w.eng.Run(0)
	var events []string
	for _, ev := range w.tr.Events() {
		events = append(events, ev.String())
	}
	return run{fired: fired, a: a.Current(), b: b.Current(), got: b.Var(varGot), aEmitted: pa.emitted}, events
}

// TestResetMakesANewAutomaton leaves automata in the states a run can be cut
// short in — crashed, in an output state with its emission pending, in an
// input state with an armed timeout and a buffered message nothing consumes —
// and resets each onto the program it was not running. The next run must be,
// event for event, the run of two new automata, both when the next run
// completes and when its timeout fires.
func TestResetMakesANewAutomaton(t *testing.T) {
	const delay = 5 * sim.Millisecond
	for _, timeout := range []sim.Time{sim.Second, 2 * sim.Millisecond} {
		ref := newBench(delay)
		want, wantEvents := pingPong(ref, new(Automaton), new(Automaton), timeout)

		dirty := map[string]func(w *bench) (a, b *Automaton){
			"crashed": func(w *bench) (*Automaton, *Automaton) {
				x := w.bind(new(Automaton), pong, "x", &peer{to: pid("y"), timeout: sim.Second})
				y := w.bind(new(Automaton), ping, "y", &peer{to: pid("x")})
				x.Start()
				y.Start()
				w.eng.RunUntil(3*sim.Millisecond, 0) // y's ping is in flight
				x.Crash()
				y.Crash()
				w.eng.Run(0)
				if x.Done() || y.Done() || x.Current() != "wait" || y.Current() != "wait" {
					t.Fatalf("crashed: x in %q, y in %q", x.Current(), y.Current())
				}
				return x, y
			},
			"emission pending": func(w *bench) (*Automaton, *Automaton) {
				x := w.bind(new(Automaton), pong, "x", &peer{to: pid("y"), timeout: sim.Second})
				y := w.bind(new(Automaton), ping, "y", &peer{to: pid("x")})
				x.Start()
				y.Start()
				// y's ping arrives at 1ms + delay; x then computes its reply for 1ms.
				w.eng.RunUntil(sim.Millisecond+delay+sim.Millisecond/2, 0)
				if x.Current() != "reply" || len(x.pending) != 1 {
					t.Fatalf("emission pending: x in %q with %d pending", x.Current(), len(x.pending))
				}
				return x, y
			},
			"armed timeout, non-empty inbox": func(w *bench) (*Automaton, *Automaton) {
				x := w.bind(new(Automaton), pong, "x", &peer{to: pid("y"), timeout: sim.Second})
				y := w.bind(new(Automaton), ping, "y", &peer{to: pid("x")})
				x.Start()
				x.Deliver(pid("y"), netsim.RawMessage{Label: "noise"})
				y.Deliver(pid("x"), netsim.RawMessage{Label: "early"})
				if x.Current() != "wait" || len(x.pending) != 1 || len(x.inbox) != 1 || len(y.inbox) != 1 {
					t.Fatalf("armed: x in %q, %d pending, inboxes %d and %d", x.Current(), len(x.pending), len(x.inbox), len(y.inbox))
				}
				return x, y
			},
		}
		for name, leave := range dirty {
			w := newBench(delay)
			x, y := leave(w) // x ran pong, y ran ping
			w.reset()
			got, gotEvents := pingPong(w, x, y, timeout) // and now the other way round
			if !slices.Equal(gotEvents, wantEvents) {
				t.Errorf("timeout %v, %s: the reset automata's run differs from a new pair's:\n got %q\nwant %q", timeout, name, gotEvents, wantEvents)
			}
			if got != want || got.fired == 0 {
				t.Errorf("timeout %v, %s: got %+v, want %+v", timeout, name, got, want)
			}
			// And back: x runs pong again, on the storage its first run wrote.
			w.reset()
			if got, gotEvents = pingPong(w, y, x, timeout); got != want || !slices.Equal(gotEvents, wantEvents) {
				t.Errorf("timeout %v, %s, swapped back: got %+v %q, want %+v %q", timeout, name, got, gotEvents, want, wantEvents)
			}
			if len(x.inbox) != 0 || len(y.inbox) != 0 {
				t.Errorf("timeout %v, %s: a message of the previous run is still buffered", timeout, name)
			}
		}
	}
}

// TestMutedStepsDoNotAllocate: once an automaton's slices have grown, a
// muted run on it — reset, emission, delivery, buffered match, timeout
// arming and firing — allocates nothing.
func TestMutedStepsDoNotAllocate(t *testing.T) {
	for _, timeout := range []sim.Time{sim.Second, 2 * sim.Millisecond} {
		w := newBench(5 * sim.Millisecond)
		a, b := new(Automaton), new(Automaton)
		pa, pb := &peer{to: pid("b")}, &peer{to: pid("a"), timeout: timeout}
		clk := clock.New(w.eng, 0, 0)
		once := func() {
			w.eng.Reset(1)
			w.tr.Reset(true)
			w.net.Reset(w.net.Model())
			w.net.SetParticipants(names)
			a.Reset(ping, "a", pid("a"), pa, sim.Millisecond, clk, w.net, w.tr)
			b.Reset(pong, "b", pid("b"), pb, sim.Millisecond, clk, w.net, w.tr)
			a.Start()
			b.Start()
			w.eng.Run(0)
		}
		once()
		if !b.Done() {
			t.Fatalf("timeout %v: b did not finish", timeout)
		}
		if n := testing.AllocsPerRun(100, once); n != 0 {
			t.Errorf("timeout %v: a muted run on standing automata allocates %.0f times", timeout, n)
		}
	}
}
