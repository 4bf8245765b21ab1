package traffic

import (
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// sliceSource feeds the timeline an already simulated population.
type sliceSource struct {
	pays []*payment
	subs []subOutcome
	i    int
}

func (s *sliceSource) next() (*payment, subOutcome, bool) {
	if s.i >= len(s.pays) {
		return nil, subOutcome{}, false
	}
	p, sub := s.pays[s.i], s.subs[s.i]
	s.i++
	return p, sub, true
}

// population draws the whole workload at once (RunWith never holds more than
// a few chunks of it).
func population(s core.Scenario, w Workload) []*payment {
	g := w.newGenerator(s)
	var out []*payment
	for p := new(payment); g.next(p); p = new(payment) {
		out = append(out, p)
	}
	return out
}

// referenceRun is the oracle every lattice cell is compared against: the
// whole population, simulated in index order on one world, then fed to the
// timeline from a slice, every record kept. No chunk, pool, channel, skip or
// demand pre-pass — everything RunWith's pipeline adds is what it checks.
func referenceRun(t *testing.T, s core.Scenario, w Workload) *Result {
	t.Helper()
	plan := w.Faults.compile(s)
	src, res := simulatedRun(s, w, plan, DefaultProtocols())
	if err := executeTimeline(res, src, w, plan, true, 0, nil, RunMetrics{}, nil, nil); err != nil {
		t.Fatal(err)
	}
	return res
}

// simulatedRun draws the whole population, simulates it in index order on
// one world with the registry's protocols and returns it as a slice source beside the empty Result (every
// record kept, book endowed) a timeline over it fills in.
func simulatedRun(s core.Scenario, w Workload, plan *compiledPlan, registry map[string]core.Protocol) (*sliceSource, *Result) {
	src := &sliceSource{pays: population(s, w)}
	demand := map[string]map[string]int64{}
	world := core.NewWorld()
	for _, p := range src.pays {
		addDemand(demand, p)
		src.subs = append(src.subs, simulateOne(world, s, plan, p, registry))
	}
	return src, &Result{
		Chain:               s.Topology.N,
		Seed:                s.Seed,
		Workload:            w,
		ByzantineConnectors: plan.connectors(),
		Payments:            make([]PaymentResult, w.Payments),
		Book:                newLiquidityBook(s, w, demand),
	}
}

// requireSameAggregates is requireSameResult for a run that dropped its
// per-payment records: every exact aggregate and the final book wealth are
// byte-identical to ref's, and each histogram percentile sits within the
// documented bound (≤1% relative error, 1.1% with rounding) of the order
// statistic it targets among ref's exact latencies.
func requireSameAggregates(t *testing.T, tag string, got, ref *Result) {
	t.Helper()
	if got.Payments != nil || !got.ApproxPercentiles {
		t.Fatalf("%s: aggregate-only run kept %d records (approx=%v)", tag, len(got.Payments), got.ApproxPercentiles)
	}
	var lat []float64
	for i := range ref.Payments {
		if pr := &ref.Payments[i]; pr.Status == StatusOK {
			lat = append(lat, pr.Latency().Millis())
		}
	}
	sort.Float64s(lat)
	exact := *got
	for _, pc := range []struct {
		q        float64
		got, ref *float64
	}{
		{50, &exact.LatencyP50Ms, &ref.LatencyP50Ms},
		{95, &exact.LatencyP95Ms, &ref.LatencyP95Ms},
		{99, &exact.LatencyP99Ms, &ref.LatencyP99Ms},
	} {
		if len(lat) > 0 {
			want := lat[int(pc.q/100*float64(len(lat)-1))]
			if rel := (*pc.got - want) / want; rel > 0.011 || rel < -0.011 {
				t.Errorf("%s: p%v estimate off by %.2f%%: exact=%v approx=%v", tag, pc.q, 100*rel, want, *pc.got)
			}
		}
		*pc.got = *pc.ref
	}
	// String prints every other aggregate; the raw floats are compared too so
	// a difference below its print precision still fails.
	if gs, rs := exact.String(), ref.String(); gs != rs {
		t.Fatalf("%s: exact aggregates diverged from reference:\n--- got ---\n%s--- ref ---\n%s", tag, gs, rs)
	}
	for name, pair := range map[string][2]float64{
		"success-rate": {ref.SuccessRate, got.SuccessRate},
		"offered":      {ref.OfferedRate, got.OfferedRate},
		"throughput":   {ref.Throughput, got.Throughput},
		"lat-mean":     {ref.LatencyMeanMs, got.LatencyMeanMs},
		"lat-max":      {ref.LatencyMaxMs, got.LatencyMaxMs},
		"queue-wait":   {ref.QueueWaitMeanMs, got.QueueWaitMeanMs},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s: %s differs exactly: ref=%v got=%v", tag, name, pair[0], pair[1])
		}
	}
	if gw, rw := got.Book.SnapshotWealth(), ref.Book.SnapshotWealth(); !reflect.DeepEqual(gw, rw) {
		t.Fatalf("%s: book wealth diverged:\n got: %v\nwant: %v", tag, gw, rw)
	}
}

// latticeInput is one row: a (scenario, workload) pair named after the part
// of the timeline it stresses, the payment index at which the resume columns
// cut the run, and a check that the reference really shows that stress.
type latticeInput struct {
	name      string
	s         core.Scenario
	w         Workload
	cut       int
	exercises func(ref *Result) bool
}

// latticeKnob is one column: a result-neutral configuration, optionally run
// with a live registry (cross-checked against the Result), interrupted at
// the row's cut point and resumed, or repeated (goroutine scheduling must
// never reach a Result). A new knob joins the lattice as one more entry.
type latticeKnob struct {
	name    string
	cfg     Config
	metrics bool
	resume  bool
	runs    int
}

func latticeInputs() []latticeInput {
	hmac := func(s core.Scenario) core.Scenario { s.Crypto = "hmac"; return s }
	mix := NewWorkload(400).WithMix(mixed...)
	mix.Arrival.Rate = 500
	// Starved: refunds through the silent connector recycle capacity; the
	// short patience makes some payments expire (expiry unlink) while others
	// are admitted off the queue (drain unlink).
	starved := NewWorkload(120).WithLiquidity(450).WithQueue(3*sim.Second, 0)
	starved.Arrival = Arrival{Kind: ArrivalBurst, BurstSize: 40, BurstGap: 2 * sim.Second}
	sub := NewWorkload(300).WithMix(mixed...).WithLiquidity(4000).WithQueue(2*sim.Second, 0)
	sub.Arrival.Rate = 2000
	sub.RandomSubPaths = true

	// Refund-wake: two static silent connectors on a six-escrow chain with
	// sub-path routes, so failed payments refund several accounts at once and
	// the waiters they wake are re-filed under other hops or admitted.
	wake := NewWorkload(600).WithLiquidity(1500).WithQueue(1500*sim.Millisecond, 0)
	wake.Arrival.Rate = 3000
	wake.RandomSubPaths = true
	silent := core.FaultSpec{Silent: true}

	byzantine := func(r *Result) bool {
		return r.FaultedPayments > 0 && r.PeakByzantineHeld > 0 && r.SafetyViolations == 0
	}
	queued := func(r *Result) bool { return r.Dropped > 0 && r.QueuedCount > 0 }
	return []latticeInput{
		{name: "mixed", s: hmac(core.NewScenario(5, 42)), w: mix, cut: 137},
		{name: "bursty", s: burstyScenario(), w: burstyWorkload(false), cut: 151},
		{name: "bursty-faulted", s: burstyScenario(), w: burstyWorkload(true), cut: 151, exercises: byzantine},
		{name: "manager-outage", s: hmac(core.NewScenario(8, 99)), w: byzWorkload(400), cut: 200, exercises: byzantine},
		{name: "starved-queue", s: hmac(core.NewScenario(4, 7).SetFault(core.CustomerID(2), core.FaultSpec{Silent: true})),
			w: starved, cut: 57, exercises: queued},
		{name: "subpaths-bounded", s: hmac(core.NewScenario(4, 7)), w: sub, cut: 150,
			exercises: func(r *Result) bool { return r.QueuedCount > 0 }},
		{name: "refund-wake", s: hmac(core.NewScenario(6, 11).SetFault(core.CustomerID(2), silent).SetFault(core.CustomerID(4), silent)),
			w: wake, cut: 300,
			exercises: func(r *Result) bool { return r.Failed > 0 && r.Dropped > 0 && admittedFromQueue(r) > 20 }},
	}
}

func latticeKnobs() []latticeKnob {
	keep := Config{Stream: true, KeepPayments: true}
	drop := Config{Stream: true, Exemplars: 16}
	with := func(c Config, workers int) Config { c.Workers = workers; return c }
	return []latticeKnob{
		{name: "workers=1", cfg: Config{Workers: 1}},
		{name: "workers=4", cfg: with(keep, 4), runs: 5},
		{name: "workers=numcpu", cfg: with(keep, runtime.NumCPU())},
		{name: "shards-ignored", cfg: Config{Shards: -4}},
		{name: "drop", cfg: with(drop, 1)},
		{name: "drop/workers=4", cfg: with(drop, 4)},
		{name: "metrics", cfg: Config{Workers: 4}, metrics: true},
		{name: "metrics/drop", cfg: with(drop, 2), metrics: true},
		{name: "ed25519", cfg: Config{Crypto: "ed25519"}},
		{name: "resume", cfg: Config{Workers: 2}, resume: true},
		{name: "resume/workers=4", cfg: with(keep, 4), resume: true},
		{name: "resume/drop", cfg: with(drop, 2), resume: true},
	}
}

// TestExecutionLattice is the determinism suite of the traffic engine in one
// table: every input × every result-neutral knob is byte-compared against
// the serial reference — String(), per-payment records and final book wealth
// when records are kept; every exact aggregate, the histogram bound and the
// book wealth when they are dropped, plus one exemplar reservoir per input
// whatever the worker count, registry or interruption. Runs under -race in
// CI's race job.
func TestExecutionLattice(t *testing.T) {
	for _, in := range latticeInputs() {
		ref := referenceRun(t, in.s, in.w)
		if ref.AuditErr != nil || ref.CascadeErr != nil || ref.PendingLocks != 0 {
			t.Fatalf("%s: reference failed its accounting:\n%s", in.name, ref)
		}
		if in.exercises != nil && !in.exercises(ref) {
			t.Fatalf("%s: input does not exercise what it is named after:\n%s", in.name, ref)
		}
		var exemplars []PaymentResult // shared by every drop cell of this row
		for _, k := range latticeKnobs() {
			t.Run(in.name+"/"+k.name, func(t *testing.T) {
				for run := 0; run < max(k.runs, 1); run++ {
					cfg := k.cfg
					if k.metrics {
						cfg.Metrics = metrics.NewRegistry()
					}
					var got *Result
					if k.resume {
						got, _ = resumeAfterInterrupt(t, in.s, in.w, cfg, in.cut)
					} else {
						var err error
						if got, err = RunWith(in.s, in.w, cfg); err != nil {
							t.Fatal(err)
						}
					}
					if k.metrics {
						checkRunCounters(t, cfg.Metrics, got)
					}
					if cfg.keep() {
						requireSameResult(t, k.name, got, ref)
						continue
					}
					requireSameAggregates(t, k.name, got, ref)
					if len(got.Exemplars) != cfg.Exemplars {
						t.Fatalf("reservoir kept %d exemplars, want %d", len(got.Exemplars), cfg.Exemplars)
					}
					if exemplars == nil {
						exemplars = got.Exemplars
					} else if !reflect.DeepEqual(got.Exemplars, exemplars) {
						t.Fatalf("exemplar reservoir differs from the row's first drop cell:\n got: %v\nwant: %v", got.Exemplars, exemplars)
					}
				}
			})
		}
	}
}
