package clock

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestPerfectClockTracksRealTime(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, 0, 0)
	eng.ScheduleAt(250*sim.Millisecond, "probe", func() {
		if c.Now() != 250*sim.Millisecond {
			t.Errorf("perfect clock reads %v at real 250ms", c.Now())
		}
	})
	eng.Run(0)
}

func TestFastAndSlowClocks(t *testing.T) {
	eng := sim.NewEngine(1)
	fast := New(eng, 0.1, 0)
	slow := New(eng, -0.1, 0)
	eng.ScheduleAt(1*sim.Second, "probe", func() {
		if fast.Now() <= 1*sim.Second {
			t.Errorf("fast clock reads %v, want > 1s", fast.Now())
		}
		if slow.Now() >= 1*sim.Second {
			t.Errorf("slow clock reads %v, want < 1s", slow.Now())
		}
	})
	eng.Run(0)
}

func TestOffset(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, 0, 5*sim.Millisecond)
	if c.Now() != 5*sim.Millisecond {
		t.Errorf("offset clock reads %v at time 0", c.Now())
	}
}

func TestScheduleAfterLocalReachesTarget(t *testing.T) {
	for _, rho := range []Drift{-0.2, -0.01, 0, 0.01, 0.2} {
		eng := sim.NewEngine(1)
		c := New(eng, rho, 0)
		var reading sim.Time
		c.ScheduleAfterLocal(100*sim.Millisecond, "wake", func() { reading = c.Now() })
		eng.Run(0)
		if reading < 100*sim.Millisecond {
			t.Errorf("rho=%v: woke at local %v, before the requested 100ms", rho, reading)
		}
	}
}

// TestScheduleArgVariants: the pre-bound-argument forms wake at the same
// instant as the closure forms, with the argument they were given.
func TestScheduleArgVariants(t *testing.T) {
	for _, rho := range []Drift{-0.2, 0, 0.2} {
		eng := sim.NewEngine(1)
		c := New(eng, rho, 3*sim.Millisecond)
		var fired [4]sim.Time
		stamp := func(x any) { *x.(*sim.Time) = eng.Now() }
		c.ScheduleAfterLocal(100*sim.Millisecond, "after", func() { fired[0] = eng.Now() })
		c.ScheduleArgAfterLocal(100*sim.Millisecond, "after-arg", stamp, &fired[1])
		c.ScheduleAtLocal(50*sim.Millisecond, "at", func() { fired[2] = eng.Now() })
		c.ScheduleArgAtLocal(50*sim.Millisecond, "at-arg", stamp, &fired[3])
		eng.Run(0)
		if fired[0] == 0 || fired[1] != fired[0] || fired[2] == 0 || fired[3] != fired[2] {
			t.Errorf("rho=%v: closure and argument forms fired at %v", rho, fired)
		}
	}
}

func TestScheduleAtLocalInPastFiresImmediately(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, 0, 10*sim.Millisecond)
	fired := false
	c.ScheduleAtLocal(5*sim.Millisecond, "past", func() { fired = true })
	eng.Run(0)
	if !fired {
		t.Fatal("past local target never fired")
	}
}

func TestRealUntilLocal(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, 0, 0)
	if c.RealUntilLocal(0) != 0 {
		t.Error("RealUntilLocal of an already-passed target must be 0")
	}
	if got := c.RealUntilLocal(10 * sim.Millisecond); got < 10*sim.Millisecond {
		t.Errorf("RealUntilLocal = %v", got)
	}
	if c.String() == "" {
		t.Error("empty clock rendering")
	}
}

func TestBoundConversions(t *testing.T) {
	b := Bound{MaxRho: 0.1, MaxOffset: 5 * sim.Millisecond}
	d := 100 * sim.Millisecond
	if b.LocalForRealUpper(d) <= d {
		t.Error("upper local bound should exceed the real duration")
	}
	if b.RealForLocalUpper(d) <= d {
		t.Error("upper real bound should exceed the local duration")
	}
	for _, f := range []func(sim.Time) sim.Time{b.LocalForRealUpper, b.RealForLocalUpper} {
		if f(0) != 0 || f(-5) != 0 {
			t.Error("non-positive durations must map to 0")
		}
	}
}

func TestPropertyRealForCoversLocalDuration(t *testing.T) {
	// Waiting RealFor(d) real time always advances the local clock by at
	// least d, for any drift within the model and any duration.
	f := func(rhoMilli int16, dRaw uint32) bool {
		rho := Drift(float64(rhoMilli%500) / 1000) // |rho| < 0.5
		d := sim.Time(dRaw % 10_000_000)
		eng := sim.NewEngine(1)
		c := New(eng, rho, 0)
		real := c.RealFor(d)
		return c.AtReal(real) >= d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
