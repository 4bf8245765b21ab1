package core

import (
	"strconv"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// NewScenario returns a ready-to-run scenario for a chain with n escrows:
// default timing, a synchronous network with delay bound Timing.MaxMsgDelay,
// a payment of 1000 units to Bob with a commission of 10 units per hop, an
// initial balance that comfortably funds it, and no faults.
//
// Callers typically adjust Network, Faults or Patience before running. The
// scenario is a value, and the With* and Set* builders return changed copies,
// independent of the original (SetFault and SetPatience copy the Faults and
// Patience maps on write). A run copies it once, into its world, and reads
// that copy through a pointer from then on.
func NewScenario(n int, seed int64) Scenario {
	topo := NewTopology(n)
	timing := DefaultTiming()
	spec := NewPaymentSpec(PaymentID(n, seed), topo, 1000, 10)
	return Scenario{
		Topology:       topo,
		Spec:           spec,
		Timing:         timing,
		Network:        netsim.Synchronous{Min: 1 * sim.Millisecond, Max: timing.MaxMsgDelay},
		InitialBalance: spec.AlicePays() * 2,
		Seed:           seed,
	}
}

// PaymentID is the payment identifier NewScenario gives a chain of n escrows
// run under seed, "pay-n<n>-s<seed>".
func PaymentID(n int, seed int64) string {
	var buf [48]byte
	b := strconv.AppendInt(append(buf[:0], "pay-n"...), int64(n), 10)
	return string(strconv.AppendInt(append(b, "-s"...), seed, 10))
}

// WithNetwork returns a copy of the scenario using the given delay model.
func (s Scenario) WithNetwork(m netsim.DelayModel) Scenario {
	s.Network = m
	return s
}

// WithSeed returns a copy of the scenario with a different RNG seed. The
// payment ID stays as it was: runs of one scenario under several seeds share
// it.
func (s Scenario) WithSeed(seed int64) Scenario {
	s.Seed = seed
	return s
}

// WithPayment returns a copy of the scenario with a fresh commissioned
// payment spec (base amount paid to Bob, per-hop commission added upstream)
// and an initial balance that comfortably funds it.
func (s Scenario) WithPayment(base, commission int64) Scenario {
	s.Spec = NewPaymentSpec(s.Spec.PaymentID, s.Topology, base, commission)
	s.InitialBalance = s.Spec.AlicePays() * 2
	return s
}

// WithTiming returns a copy of the scenario with different timing
// assumptions.
func (s Scenario) WithTiming(t Timing) Scenario {
	s.Timing = t
	return s
}

// SetFault returns a copy of the scenario in which participant id deviates
// according to f. The original scenario's fault map is not modified.
func (s Scenario) SetFault(id string, f FaultSpec) Scenario {
	faults := make(map[string]FaultSpec, len(s.Faults)+1)
	for k, v := range s.Faults {
		faults[k] = v
	}
	faults[id] = f
	s.Faults = faults
	return s
}

// SetPatience returns a copy of the scenario in which customer id waits at
// most p (local time) at each waiting point of the weak-liveness protocol.
func (s Scenario) SetPatience(id string, p sim.Time) Scenario {
	pat := make(map[string]sim.Time, len(s.Patience)+1)
	for k, v := range s.Patience {
		pat[k] = v
	}
	pat[id] = p
	s.Patience = pat
	return s
}

// Muted returns a copy of the scenario with trace recording disabled (used
// by large benchmark sweeps). Nothing a run computes depends on it.
func (s Scenario) Muted() Scenario {
	s.MuteTrace = true
	return s
}

// WithCrypto returns a copy of the scenario using the named signature
// backend ("" = ed25519). Backends realise the model's assumed
// authentication primitive, so verdicts never depend on the choice.
func (s Scenario) WithCrypto(backend string) Scenario {
	s.Crypto = backend
	return s
}
