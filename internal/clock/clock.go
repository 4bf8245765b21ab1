// Package clock models local hardware clocks with bounded drift.
//
// The time-bounded protocol of the paper (Fig. 2) is the Interledger
// universal protocol "fine-tuned to work correctly in the presence of clock
// drift". Each participant owns a Clock whose reading may advance faster or
// slower than virtual (real) time by a bounded rate rho, and may start with a
// bounded offset. All protocol timeouts are expressed against these local
// clocks, exactly as the automata of Fig. 2 read the variable `now`.
package clock

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Drift is a clock's rate deviation: a clock with Drift rho advances by
// (1+rho) local microseconds per real microsecond. rho may be negative
// (slow clock). |rho| is assumed < 1.
type Drift float64

// Clock is a drifting local clock attached to a simulation engine.
//
// The zero value is not usable; construct with New.
type Clock struct {
	eng    *sim.Engine
	rho    Drift
	offset sim.Time // local reading at real time zero
	origin sim.Time // real time at which the clock was created
}

// New returns a clock reading offset at the engine's current time and
// advancing at rate (1+rho).
func New(eng *sim.Engine, rho Drift, offset sim.Time) *Clock {
	return &Clock{eng: eng, rho: rho, offset: offset, origin: eng.Now()}
}

// Now returns the clock's current local reading.
func (c *Clock) Now() sim.Time {
	return c.AtReal(c.eng.Now())
}

// AtReal returns the local reading the clock shows at real time t.
func (c *Clock) AtReal(t sim.Time) sim.Time {
	elapsed := float64(t - c.origin)
	return c.offset + sim.Time(elapsed*(1+float64(c.rho)))
}

// RealFor returns the real duration that must elapse for the local clock to
// advance by at least local duration d. For a fast clock (rho > 0) this is
// shorter than d; for a slow clock it is longer. The result is rounded up,
// plus one tick to absorb the floating-point rounding of the forward
// conversion, so that waiting RealFor(d) always advances the local clock by
// at least d.
func (c *Clock) RealFor(d sim.Time) sim.Time {
	if d <= 0 {
		return 0
	}
	return sim.Time(math.Ceil(float64(d)/(1+float64(c.rho)))) + 1
}

// RealUntilLocal returns the real duration until the local clock reads at
// least target. It returns 0 if the clock already reads target or later.
func (c *Clock) RealUntilLocal(target sim.Time) sim.Time {
	now := c.Now()
	if now >= target {
		return 0
	}
	return c.RealFor(target - now)
}

// ScheduleArgAtLocal schedules fn(arg) to run when the local clock reaches
// local time target (sim.Engine.ScheduleArgIn: a package-level action with
// its argument pre-bound, so nothing is allocated per event). The returned
// timer may be canceled.
func (c *Clock) ScheduleArgAtLocal(target sim.Time, fn func(any), arg any) sim.Timer {
	return c.eng.ScheduleArgIn(c.RealUntilLocal(target), "", fn, arg)
}

// ScheduleArgAfterLocal schedules fn(arg) to run after local duration d has
// elapsed on this clock.
func (c *Clock) ScheduleArgAfterLocal(d sim.Time, fn func(any), arg any) sim.Timer {
	return c.eng.ScheduleArgIn(c.RealFor(d), "", fn, arg)
}

// String describes the clock's drift and offset.
func (c *Clock) String() string {
	return fmt.Sprintf("clock(rho=%+.6f, offset=%v)", float64(c.rho), c.offset)
}

// Bound describes the synchrony assumptions on clocks used when deriving
// protocol timeouts: every correct participant's clock has |rho| <= MaxRho
// and initial offset within [-MaxOffset, +MaxOffset].
type Bound struct {
	MaxRho    Drift
	MaxOffset sim.Time
}

// LocalForRealUpper returns an upper bound on how much local time can elapse
// on any clock satisfying the bound while real duration d elapses.
func (b Bound) LocalForRealUpper(d sim.Time) sim.Time {
	if d <= 0 {
		return 0
	}
	return sim.Time(float64(d) * (1 + float64(b.MaxRho)))
}

// RealForLocalUpper returns an upper bound on the real time needed for any
// conforming clock to advance by local duration d (slowest clock).
func (b Bound) RealForLocalUpper(d sim.Time) sim.Time {
	if d <= 0 {
		return 0
	}
	return sim.Time(float64(d)/(1-float64(b.MaxRho))) + 1
}
