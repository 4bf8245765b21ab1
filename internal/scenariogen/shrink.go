package scenariogen

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// Keep is a predicate over outcomes: the shrinker only accepts a smaller
// scenario if its outcome still satisfies the predicate (i.e. still fails
// the same way).
type Keep func(*Outcome) bool

// KeepViolation keeps outcomes that still exhibit a violation of the same
// kind (and property, for property violations) as the witness.
func KeepViolation(witness Violation) Keep {
	return func(o *Outcome) bool {
		for _, v := range o.Violations {
			if v.Kind == witness.Kind && v.Property == witness.Property {
				return true
			}
		}
		return false
	}
}

// KeepExpectedFailure keeps outcomes that still exhibit the given expected
// (theorem-shaped) failure without introducing any oracle violation. It is
// used to minimise Theorem-2 counterexamples for the replay corpus.
func KeepExpectedFailure(p core.Property) Keep {
	return func(o *Outcome) bool {
		if !o.OK() {
			return false
		}
		for _, q := range o.ExpectedFailures {
			if q == p {
				return true
			}
		}
		return false
	}
}

// ShrinkResult reports a shrink: the minimal spec found, its outcome, and
// how much work it took.
type ShrinkResult struct {
	Spec    Spec
	Outcome *Outcome
	// Accepted counts candidate reductions that preserved the failure;
	// Tried counts all candidates executed.
	Accepted, Tried int
}

// Shrink greedily minimises a failing scenario while preserving the failure
// according to keep: shorter chain, fewer faults, smaller amounts, tamer
// schedule. Each accepted candidate strictly reduces the scenario's size
// measure, so the loop terminates; maxTries bounds the total number of runs
// (0 means a generous default). The spec passed in must already satisfy keep
// (its outcome is recomputed as the baseline). Every candidate is judged on
// one standing pair of worlds.
func Shrink(sp Spec, keep Keep, maxTries int) ShrinkResult {
	if maxTries <= 0 {
		maxTries = 400
	}
	ws := &worlds{}
	res := ShrinkResult{Spec: sp, Outcome: runOn(sp, ws)}
	if !keep(res.Outcome) {
		return res
	}
	for {
		improved := false
		for _, cand := range candidates(res.Spec) {
			if res.Tried >= maxTries {
				return res
			}
			if cand.size() >= res.Spec.size() {
				continue
			}
			res.Tried++
			out := runOn(cand, ws)
			if keep(out) {
				res.Spec, res.Outcome = cand, out
				res.Accepted++
				improved = true
				break // restart candidate enumeration from the smaller spec
			}
		}
		if !improved {
			return res
		}
	}
}

// size is the scalar the shrinker minimises. Chain length dominates, then
// fault and patience counts, then logarithmic measures of the amounts and of
// the schedule's aggression. Every candidate mutation strictly reduces it.
func (sp Spec) size() int64 {
	s := int64(sp.N) * 1_000_000
	s += int64(len(sp.Faults)) * 100_000
	s += int64(len(sp.Patience)) * 10_000
	s += ilog2(sp.Base) * 100
	s += ilog2(int64(sp.Net.Holdback)+int64(sp.Net.MaxPreGST)+int64(sp.Net.GST)) * 20
	s += ilog2(int64(sp.Timing.Delta)) * 4
	s += ilog2(int64(sp.Timing.Offset) + 1)
	if sp.Commission > 0 {
		s += 10
	}
	if sp.Timing.Rho > 0 {
		s += 10
	}
	if sp.TimeoutScale > 1 {
		s += int64(sp.TimeoutScale)
	}
	if t := sp.Traffic; t != nil {
		s += int64(t.Payments) * 1_000
		s += int64(len(t.FaultBehaviours)) * 50
		s += ilog2(int64(t.FaultFrom)+int64(t.FaultOutage)+int64(t.ManagerOutage)) * 20
		s += ilog2(int64(t.QueuePatience)) * 4
		if t.FaultFraction > 0 {
			s += 500
		}
		if t.SubPaths {
			s += 10
		}
		if t.Liquidity > 0 {
			s += 10
		}
	}
	return s
}

func ilog2(v int64) int64 {
	var n int64
	for v > 0 {
		v >>= 1
		n++
	}
	return n
}

// candidates enumerates one-step reductions of the spec, most aggressive
// first (halving the chain before trimming microseconds off a delay).
func candidates(sp Spec) []Spec {
	var out []Spec
	add := func(mutate func(*Spec)) {
		c := sp.clone()
		mutate(&c)
		out = append(out, c)
	}
	minN := 1
	if sp.isDeal() {
		minN = 2
	}
	seen := map[int]bool{}
	for _, n := range []int{minN, sp.N / 2, sp.N - 1} {
		if n >= minN && n < sp.N && !seen[n] {
			seen[n] = true
			n := n
			add(func(c *Spec) { c.setN(n) })
		}
	}
	for _, id := range sortedKeys(sp.Faults) {
		id := id
		add(func(c *Spec) { delete(c.Faults, id) })
	}
	if !sp.isWeaklive() {
		for _, id := range sortedTimeKeys(sp.Patience) {
			id := id
			add(func(c *Spec) { delete(c.Patience, id) })
		}
	}
	for _, b := range []int64{1, sp.Base / 10, sp.Base / 2} {
		if b >= 1 && b < sp.Base {
			b := b
			add(func(c *Spec) { c.Base = b })
		}
	}
	if sp.Commission > 0 {
		add(func(c *Spec) { c.Commission = 0 })
	}
	if sp.Net.Holdback > 1 {
		for _, d := range []int64{4, 2} {
			d := d
			add(func(c *Spec) { c.Net.Holdback = max1(c.Net.Holdback / sim.Time(d)) })
		}
	}
	if sp.Net.MaxPreGST > 1 {
		add(func(c *Spec) { c.Net.MaxPreGST = max1(c.Net.MaxPreGST / 4) })
	}
	if sp.Net.GST > 0 {
		add(func(c *Spec) { c.Net.GST = 0 })
	}
	if sp.TimeoutScale > 1 {
		add(func(c *Spec) {
			c.TimeoutScale = c.TimeoutScale / 2
			if c.TimeoutScale < 1 {
				c.TimeoutScale = 1
			}
		})
	}
	if def := sim.Time(50) * sim.Millisecond; sp.Timing.Delta > def {
		add(func(c *Spec) { c.Timing.Delta = def })
	}
	if sp.Timing.Rho > 0 {
		add(func(c *Spec) { c.Timing.Rho = 0 })
	}
	if sp.Timing.Offset > 0 {
		add(func(c *Spec) { c.Timing.Offset = 0 })
	}
	if sp.Net.Min > 1 {
		add(func(c *Spec) { c.Net.Min = 1 })
	}
	if t := sp.Traffic; t != nil {
		for _, p := range []int{1, t.Payments / 10, t.Payments / 2} {
			if p >= 1 && p < t.Payments {
				p := p
				add(func(c *Spec) {
					c.Traffic.Payments = p
					if c.Traffic.CheckpointAt >= p {
						c.Traffic.CheckpointAt = 0
					}
				})
			}
		}
		if t.CheckpointAt > 0 {
			add(func(c *Spec) { c.Traffic.CheckpointAt = 0 })
		}
		if t.FaultFraction > 0 {
			add(func(c *Spec) {
				c.Traffic.FaultFraction = 0
				c.Traffic.FaultBehaviours = nil
				c.Traffic.FaultFrom, c.Traffic.FaultOutage = 0, 0
			})
		}
		if len(t.FaultBehaviours) > 1 {
			add(func(c *Spec) {
				c.Traffic.FaultBehaviours = c.Traffic.FaultBehaviours[:len(c.Traffic.FaultBehaviours)-1]
			})
		}
		if t.FaultFrom > 0 || t.FaultOutage > 0 {
			add(func(c *Spec) { c.Traffic.FaultFrom, c.Traffic.FaultOutage = 0, 0 })
		}
		if t.ManagerOutage > 0 {
			add(func(c *Spec) { c.Traffic.ManagerOutage = 0 })
		}
		if t.SubPaths {
			add(func(c *Spec) { c.Traffic.SubPaths = false })
		}
		if t.Liquidity > 0 {
			add(func(c *Spec) { c.Traffic.Liquidity, c.Traffic.QueuePatience = 0, 0 })
		}
	}
	return out
}

// setN shrinks the chain, dropping faults and patience entries that name
// participants beyond the new length.
func (c *Spec) setN(n int) {
	c.N = n
	if c.isDeal() {
		for id := range c.Faults {
			keep := false
			for i := 0; i < n; i++ {
				if id == dealPartyID(i) {
					keep = true
				}
			}
			if !keep {
				delete(c.Faults, id)
			}
		}
		return
	}
	topo := core.NewTopology(n)
	for id := range c.Faults {
		switch topo.RoleOf(id) {
		case core.RoleAlice, core.RoleConnector, core.RoleBob, core.RoleEscrow, core.RoleNotary, core.RoleManager:
		default:
			delete(c.Faults, id)
		}
	}
	for id := range c.Patience {
		switch topo.RoleOf(id) {
		case core.RoleAlice, core.RoleConnector, core.RoleBob:
		default:
			delete(c.Patience, id)
		}
	}
}

// clone deep-copies the spec's maps so candidate mutations never alias.
func (sp Spec) clone() Spec {
	c := sp
	if sp.Faults != nil {
		c.Faults = make(map[string]string, len(sp.Faults))
		for k, v := range sp.Faults {
			c.Faults[k] = v
		}
	}
	if sp.Patience != nil {
		c.Patience = make(map[string]sim.Time, len(sp.Patience))
		for k, v := range sp.Patience {
			c.Patience[k] = v
		}
	}
	if sp.Traffic != nil {
		t := *sp.Traffic
		if sp.Traffic.FaultBehaviours != nil {
			t.FaultBehaviours = append([]string(nil), sp.Traffic.FaultBehaviours...)
		}
		c.Traffic = &t
	}
	return c
}

func max1(t sim.Time) sim.Time {
	if t < 1 {
		return 1
	}
	return t
}
