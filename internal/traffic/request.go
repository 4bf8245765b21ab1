package traffic

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/sig"
	"repro/internal/sim"
)

// Request is a traffic run as a caller names it: the JSON body of
// xchain-serve's POST /runs, and the request flags of xchain-traffic, which
// are bound to its fields. Build is the one translation of a Request into
// the engine's inputs and the one check of its ranges.
type Request struct {
	Escrows  int   `json:"escrows"`
	Seed     int64 `json:"seed"`
	Payments int   `json:"payments"`

	Arrival    string  `json:"arrival"` // poisson, uniform, burst
	Rate       float64 `json:"rate"`
	BurstSize  int     `json:"burst_size"`   // 0: the engine's 10
	BurstGapMs float64 `json:"burst_gap_ms"` // 0: the engine's 100 ms

	Amount     int64  `json:"amount"`
	AmountDist string `json:"amount_dist"` // fixed, uniform, exponential
	Spread     int64  `json:"spread"`
	Commission int64  `json:"commission"`

	Mix         string  `json:"mix"` // "timelock=1,htlc=1"
	Subpaths    bool    `json:"subpaths"`
	Hotspot     int     `json:"hotspot"`
	HotspotFrac float64 `json:"hotspot_frac"`

	Liquidity       int64   `json:"liquidity"`
	QueuePatienceMs float64 `json:"queue_patience_ms"`
	MaxQueue        int     `json:"max_queue"`

	Faults string `json:"faults"` // "c1=silent,e0=theft"

	// The fault plan (see FaultPlan), built when FaultFraction or
	// ManagerOutageMs is positive.
	FaultFraction   float64  `json:"fault_fraction"`
	FaultBehaviours []string `json:"fault_behaviours"`
	FaultFromMs     float64  `json:"fault_from_ms"`
	FaultStaggerMs  float64  `json:"fault_stagger_ms"`
	FaultOutageMs   float64  `json:"fault_outage_ms"`
	ManagerOutageMs float64  `json:"manager_outage_ms"`

	// Stream selects aggregate-only retention (see Config.Stream); it does
	// not change how the run executes.
	Stream  bool   `json:"stream"`
	Workers int    `json:"workers"`
	Crypto  string `json:"crypto"`
}

// DefaultRequest is the run a caller who names nothing gets: the defaults of
// xchain-traffic's flags, and what every key absent from a POST /runs body
// stands for.
func DefaultRequest() Request {
	return Request{
		Escrows:    8,
		Seed:       42,
		Payments:   1000,
		Arrival:    string(ArrivalPoisson),
		Rate:       500,
		BurstSize:  25,
		BurstGapMs: 2000,
		Amount:     100,
		AmountDist: string(AmountFixed),
		Commission: 1,
		Mix:        "timelock=1",
	}
}

// DecodeRequest decodes one JSON request onto DefaultRequest, so an absent
// key keeps its default and an explicit zero is the caller's. Unknown keys
// are an error.
func DecodeRequest(r io.Reader) (Request, error) {
	q := DefaultRequest()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&q)
	return q, err
}

// RequestError is Build's refusal of a request: Key is the JSON key of the
// field at fault.
type RequestError struct {
	Key string
	Err error
}

func (e *RequestError) Error() string { return e.Key + ": " + e.Err.Error() }

// micros converts a _ms request value to simulated time, rounded to the
// nearest microsecond. It clamps just beyond ±maxWindow first, so that no
// value overflows the conversion and Validate still refuses what is too
// long.
func micros(ms float64) sim.Time {
	limit := float64(maxWindow + 1)
	return sim.Time(math.Round(min(max(ms*float64(sim.Millisecond), -limit), limit)))
}

// Build translates the request into the engine's inputs, or fails with a
// *RequestError naming the key at fault. An empty arrival or amount kind,
// and a burst size or gap of 0, stand for the engine's defaults.
func (q Request) Build() (core.Scenario, Workload, Config, error) {
	fail := func(key string, err error) (core.Scenario, Workload, Config, error) {
		return core.Scenario{}, Workload{}, Config{}, &RequestError{Key: key, Err: err}
	}
	// The engine reads a zero rate or amount as "unset"; a request that
	// spells one out did not mean the engine's default.
	switch {
	case q.Escrows < 1 || q.Escrows > core.MaxChain:
		// Checked before anything is built: a scenario's tables grow with
		// the chain.
		return fail("escrows", fmt.Errorf("need 1 to %d escrows, got %d", core.MaxChain, q.Escrows))
	case !(q.Rate > 0):
		return fail("rate", fmt.Errorf("%v is not positive", q.Rate))
	case q.Amount <= 0:
		return fail("amount", fmt.Errorf("%d is not positive", q.Amount))
	}
	if _, ok := sig.BackendByName(q.Crypto); !ok {
		return fail("crypto", fmt.Errorf("unknown backend %q (have %v)", q.Crypto, sig.BackendNames()))
	}
	s := core.NewScenario(q.Escrows, q.Seed)
	assignment, err := adversary.ParseAssignment(q.Faults, s.Topology)
	if err != nil {
		return fail("faults", err)
	}
	s = assignment.Apply(s)
	var mix []ProtocolShare
	if q.Mix != "" {
		if mix, err = ParseMix(q.Mix); err != nil {
			return fail("mix", err)
		}
	}
	// The engine reads each of these at or below 0 as its default, and the
	// fault plan's two as "no plan": a request that spells one out below 0
	// (or as NaN) did not mean that either.
	for _, f := range []struct {
		key string
		v   float64
	}{
		{"liquidity", float64(q.Liquidity)},
		{"queue_patience_ms", q.QueuePatienceMs},
		{"max_queue", float64(q.MaxQueue)},
		{"fault_fraction", q.FaultFraction},
		{"manager_outage_ms", q.ManagerOutageMs},
		{"workers", float64(q.Workers)},
	} {
		if !(f.v >= 0) {
			return fail(f.key, fmt.Errorf("%v is not >= 0", f.v))
		}
	}
	if !(q.FaultFraction > 0 || q.ManagerOutageMs > 0) {
		// No fault plan: its other keys are inert.
		q.FaultFraction, q.FaultBehaviours, q.FaultFromMs, q.FaultStaggerMs, q.FaultOutageMs, q.ManagerOutageMs = 0, nil, 0, 0, 0, 0
	}

	// Each key sets its workload fields in turn, and the workload is
	// validated after every one, so a rejection names the first key that
	// made it invalid. Keys a check reads together come in the order of
	// their dependency: subpaths before the hotspot, the hot sender after
	// its fraction.
	w := NewWorkload(q.Payments)
	for _, f := range []struct {
		key string
		set func()
	}{
		{"payments", func() {}},
		{"arrival", func() { w.Arrival.Kind = cmp.Or(ArrivalKind(q.Arrival), w.Arrival.Kind) }},
		{"rate", func() { w.Arrival.Rate = q.Rate }},
		{"burst_size", func() { w.Arrival.BurstSize = max(q.BurstSize, 0) }},
		{"burst_gap_ms", func() { w.Arrival.BurstGap = micros(q.BurstGapMs) }},
		{"amount", func() { w.Amounts.Base = q.Amount }},
		{"amount_dist", func() { w.Amounts.Kind = cmp.Or(AmountKind(q.AmountDist), w.Amounts.Kind) }},
		{"spread", func() { w.Amounts.Spread = q.Spread }},
		{"commission", func() { w.Commission = q.Commission }},
		{"mix", func() { w.Mix = mix }},
		{"subpaths", func() { w.RandomSubPaths = q.Subpaths }},
		{"hotspot_frac", func() { w.HotspotFraction = q.HotspotFrac }},
		{"hotspot", func() { w.HotspotSender = q.Hotspot }},
		{"liquidity", func() { w.Liquidity = q.Liquidity }},
		{"queue_patience_ms", func() { w.QueuePatience = micros(q.QueuePatienceMs) }},
		{"max_queue", func() { w.MaxQueue = q.MaxQueue }},
		{"fault_fraction", func() { w.Faults.Fraction = q.FaultFraction }},
		{"fault_behaviours", func() { w.Faults.Behaviours = q.FaultBehaviours }},
		{"fault_from_ms", func() { w.Faults.From = micros(q.FaultFromMs) }},
		{"fault_stagger_ms", func() { w.Faults.Stagger = micros(q.FaultStaggerMs) }},
		{"fault_outage_ms", func() { w.Faults.Outage = micros(q.FaultOutageMs) }},
		{"manager_outage_ms", func() { w.Faults.ManagerOutage = micros(q.ManagerOutageMs) }},
	} {
		f.set()
		if err := w.Validate(s.Topology); err != nil {
			return fail(f.key, err)
		}
	}
	return s, w, Config{Workers: q.Workers, Stream: q.Stream, Crypto: q.Crypto}, nil
}
