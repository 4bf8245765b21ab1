package traffic

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// mixed is the protocol mix used by the heavyweight tests: mostly the
// paper's time-bounded protocol, with weak-liveness and HTLC traffic
// sharing the same escrows.
var mixed = []ProtocolShare{
	{Name: "timelock", Weight: 0.4},
	{Name: "weaklive", Weight: 0.3},
	{Name: "htlc", Weight: 0.3},
}

// burstyScenario and burstyWorkload are the execution lattice's ordering
// stress: 300 payments at 900/s on an 8-hop chain keep many arrivals, plan
// marks and settlements on the same virtual instant, and the faulted variant
// turns half the connectors Byzantine mid-run with recovery windows. The
// input exercises the timeline's event order, not the signatures, so it runs
// on the cheap hmac backend (the lattice's ed25519 column covers backends).
func burstyScenario() core.Scenario {
	s := core.NewScenario(8, 42)
	s.Crypto = "hmac"
	return s
}

func burstyWorkload(faulted bool) Workload {
	w := NewWorkload(300)
	w.Arrival.Rate = 900
	if faulted {
		w.Faults = FaultPlan{
			Fraction: 0.5,
			From:     5 * sim.Millisecond,
			Stagger:  30 * sim.Millisecond,
			Outage:   150 * sim.Millisecond,
		}
	}
	return w
}

// requireSameResult fails the test unless got is byte-identical to ref:
// aggregates, per-payment records and final book wealth.
func requireSameResult(t *testing.T, tag string, got, ref *Result) {
	t.Helper()
	if gs, rs := got.String(), ref.String(); gs != rs {
		t.Fatalf("%s: diverged from reference:\n--- got ---\n%s--- ref ---\n%s", tag, gs, rs)
	}
	if !reflect.DeepEqual(got.Payments, ref.Payments) {
		t.Fatalf("%s: per-payment records diverged", tag)
	}
	if gw, rw := got.Book.SnapshotWealth(), ref.Book.SnapshotWealth(); !reflect.DeepEqual(gw, rw) {
		t.Fatalf("%s: book wealth diverged:\n got: %v\nwant: %v", tag, gw, rw)
	}
}

// TestDeterminism1kPayments8Hops is the acceptance test of the subsystem:
// 1,000 concurrent payments on an 8-hop chain, run twice with different
// worker counts, must produce byte-identical results, keep many payments in
// flight at once, and leave every escrow ledger passing its audit.
func TestDeterminism1kPayments8Hops(t *testing.T) {
	s := core.NewScenario(8, 42)
	w := NewWorkload(1000)
	w.Arrival.Rate = 500
	w = w.WithMix(mixed...)

	a, err := RunWith(s, w, Config{}) // NumCPU workers
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWith(s, w, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}

	if as, bs := a.String(), b.String(); as != bs {
		t.Fatalf("results differ across worker counts:\n--- run A ---\n%s--- run B ---\n%s", as, bs)
	}
	if !reflect.DeepEqual(a.Payments, b.Payments) {
		t.Fatal("per-payment results differ across worker counts")
	}

	if a.Succeeded == 0 {
		t.Fatal("no payment succeeded on an all-honest synchronous chain")
	}
	if a.Succeeded+a.Failed+a.Rejected+a.Dropped+a.Errored != 1000 {
		t.Fatalf("outcome counts do not partition the workload: %+v", a)
	}
	if a.Errored != 0 {
		t.Fatalf("%d payments hit engine errors", a.Errored)
	}
	if a.PeakInFlight < 2 {
		t.Fatalf("peak in-flight %d: payments never overlapped", a.PeakInFlight)
	}
	if a.AuditErr != nil {
		t.Fatalf("liquidity book audit failed: %v", a.AuditErr)
	}
	if a.PendingLocks != 0 {
		t.Fatalf("%d traffic locks never settled", a.PendingLocks)
	}
	if a.Throughput <= 0 {
		t.Fatal("throughput not measured")
	}
	if a.LatencyP95Ms < a.LatencyP50Ms {
		t.Fatalf("latency percentiles inverted: p50=%v p95=%v", a.LatencyP50Ms, a.LatencyP95Ms)
	}
	t.Logf("\n%s", a)
}

// TestLiquidityContention starves the chain: with liquidity for only a few
// simultaneous payments and no queue, bursts must be partially rejected —
// and the ledgers must still conserve value exactly.
func TestLiquidityContention(t *testing.T) {
	s := core.NewScenario(4, 7)
	w := NewWorkload(200)
	w.Arrival = Arrival{Kind: ArrivalBurst, BurstSize: 50, BurstGap: 2 * sim.Second}
	w.Amounts = AmountDist{Kind: AmountFixed, Base: 100}
	w = w.WithLiquidity(450) // room for ~4 concurrent payments per hop

	res, err := Run(s, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Fatalf("expected rejections under starved liquidity, got none:\n%s", res)
	}
	if res.Succeeded == 0 {
		t.Fatalf("expected some successes, got none:\n%s", res)
	}
	if res.AuditErr != nil {
		t.Fatalf("audit failed under contention: %v", res.AuditErr)
	}
	if res.PendingLocks != 0 {
		t.Fatalf("%d locks left pending", res.PendingLocks)
	}
	// No value conjured: total minted per ledger equals accounts+escrowed,
	// already covered by Audit; additionally the successes must have moved
	// real value downstream.
	if res.VolumeMoved != int64(res.Succeeded)*100 {
		t.Fatalf("volume moved %d != succeeded %d * 100", res.VolumeMoved, res.Succeeded)
	}
}

// TestQueueing gives blocked payments patience. Successful payments consume
// one-directional channel capacity permanently (released value lands on the
// downstream side), so queue admissions happen exactly when REFUNDS recycle
// capacity: a silent connector makes every payment fail-and-refund, and the
// starved chain must then pump far more payments through the queue than its
// instantaneous liquidity allows.
func TestQueueing(t *testing.T) {
	s := core.NewScenario(4, 7).SetFault(core.CustomerID(2), core.FaultSpec{Silent: true})
	w := NewWorkload(120)
	w.Arrival = Arrival{Kind: ArrivalBurst, BurstSize: 40, BurstGap: 2 * sim.Second}
	w = w.WithLiquidity(450).WithQueue(10*sim.Minute, 0)

	res, err := Run(s, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueuedCount == 0 {
		t.Fatalf("expected queued payments, got none:\n%s", res)
	}
	if res.Rejected != 0 {
		t.Fatalf("unbounded queue should never reject, got %d", res.Rejected)
	}
	var queuedAdmitted int
	for _, p := range res.Payments {
		if p.Queued && p.Status != StatusDropped {
			queuedAdmitted++
			if p.QueueWait <= 0 || p.Start-p.Arrival != p.QueueWait {
				t.Fatalf("inconsistent queue accounting for %s: %+v", p.ID, p)
			}
		}
	}
	if queuedAdmitted == 0 {
		t.Fatalf("no queued payment was ever admitted:\n%s", res)
	}
	// ~4 payments fit in flight at once; refund recycling must admit far
	// more than one liquidity's worth overall.
	if admitted := res.Succeeded + res.Failed; admitted <= 8 {
		t.Fatalf("capacity not recycled through the queue: only %d admitted:\n%s", admitted, res)
	}
	if res.AuditErr != nil {
		t.Fatalf("audit failed: %v", res.AuditErr)
	}
	if res.PendingLocks != 0 {
		t.Fatalf("%d locks left pending", res.PendingLocks)
	}
}

// TestUnadmittedPaymentsCarrySubEvents pins what PaymentResult.SubEvents
// and the summary's sub-events= count: the pipeline simulates every payment
// before the timeline admits it, so a dropped or rejected payment carries the
// events of the sub-run it never settled.
func TestUnadmittedPaymentsCarrySubEvents(t *testing.T) {
	s := core.NewScenario(4, 7).WithCrypto("hmac")
	w := NewWorkload(60)
	w.Arrival = Arrival{Kind: ArrivalBurst, BurstSize: 30, BurstGap: 2 * sim.Second}
	queued := w.WithLiquidity(450).WithQueue(sim.Millisecond, 0)
	for _, in := range []struct {
		w    Workload
		want Status
	}{{queued, StatusDropped}, {w.WithLiquidity(450), StatusRejected}} {
		res, err := Run(s, in.w)
		if err != nil {
			t.Fatal(err)
		}
		var sum uint64
		seen := 0
		sm := newSimulator(in.w.Commission)
		for i, p := range population(s, in.w) {
			pr := &res.Payments[i]
			sum += pr.SubEvents
			if pr.Status != in.want {
				continue
			}
			seen++
			r, err := DefaultProtocols()[in.w.mix()[p.proto].Name].Run(*sm.subScenario(&s, nil, p))
			if err != nil {
				t.Fatal(err)
			}
			if pr.SubEvents == 0 || pr.SubEvents != r.EventsFired {
				t.Fatalf("%s payment %s carries %d sub-events, its sub-run fired %d", pr.Status, pr.ID, pr.SubEvents, r.EventsFired)
			}
		}
		if seen == 0 || sum != res.SubEventsFired {
			t.Fatalf("%d %s payments; records sum to %d sub-events, the summary counts %d:\n%s",
				seen, in.want, sum, res.SubEventsFired, res)
		}
	}
}

// TestQueuedReadmissionAfterPartialRollback is the regression test for a
// payment whose first hop fits and whose second does not: A must queue
// without holding anything on the hop that fitted (an earlier version locked
// it and rolled back, and re-admission then tripped over the rolled-back
// lock's ID), wait on the exhausted hop's account, and be re-admitted by the
// refund that credits exactly that account.
func TestQueuedReadmissionAfterPartialRollback(t *testing.T) {
	s := core.NewScenario(2, 1)
	w := Workload{Payments: 2, Liquidity: 100, QueuePatience: 10 * sim.Minute}
	// B (c1->c2) drains c1's e1 account at t=0 and refunds at t=2s;
	// A (c0->c2) arrives at t=1ms, fits e0, finds e1 exhausted, queues on e1.
	pB := &payment{Index: 0, ID: "pB", Sender: 1, Receiver: 2, Base: 100, Arrival: 0}
	pA := &payment{Index: 1, ID: "pA", Sender: 0, Receiver: 2, Base: 100, Arrival: sim.Millisecond}
	payments := []*payment{pB, pA}
	subs := []subOutcome{
		{paid: false, duration: 2 * sim.Second},
		{paid: true, duration: 100 * sim.Millisecond},
	}
	res := &Result{
		Chain:    2,
		Seed:     1,
		Workload: w,
		Payments: make([]PaymentResult, 2),
		Book:     newLiquidityBook(s, w, nil),
	}
	ps, err := resolveProtocols(w, DefaultProtocols())
	if err != nil {
		t.Fatal(err)
	}
	if err := executeTimeline(res, &sliceSource{pays: payments, subs: subs}, w, &ps, nil, true, 0, nil, RunMetrics{}, nil, nil); err != nil {
		t.Fatal(err)
	}

	a := res.Payments[1]
	if a.Status != StatusOK {
		t.Fatalf("queued payment never re-admitted after rollback: %+v", a)
	}
	if !a.Queued || a.QueueWait != 2*sim.Second-sim.Millisecond {
		t.Fatalf("queue accounting wrong: %+v", a)
	}
	if res.AuditErr != nil {
		t.Fatalf("audit failed: %v", res.AuditErr)
	}
	if res.PendingLocks != 0 {
		t.Fatalf("%d locks left pending", res.PendingLocks)
	}
}

// TestArrivalKinds checks each arrival process produces a sane,
// deterministic, nondecreasing arrival sequence.
func TestArrivalKinds(t *testing.T) {
	s := core.NewScenario(3, 9)
	for _, kind := range []ArrivalKind{ArrivalPoisson, ArrivalUniform, ArrivalBurst} {
		w := NewWorkload(60)
		w.Arrival.Kind = kind
		ps := population(s, w)
		if len(ps) != 60 {
			t.Fatalf("%s: generated %d payments", kind, len(ps))
		}
		for i := 1; i < len(ps); i++ {
			if ps[i].Arrival < ps[i-1].Arrival {
				t.Fatalf("%s: arrivals went backwards at %d", kind, i)
			}
		}
		again := population(s, w)
		for i := range ps {
			if !reflect.DeepEqual(*ps[i], *again[i]) {
				t.Fatalf("%s: generation not deterministic at payment %d", kind, i)
			}
		}
	}
	// Bursts arrive in simultaneous groups.
	w := NewWorkload(30)
	w.Arrival = Arrival{Kind: ArrivalBurst, BurstSize: 10, BurstGap: sim.Second}
	ps := population(s, w)
	if ps[0].Arrival != ps[9].Arrival || ps[9].Arrival == ps[10].Arrival {
		t.Fatalf("burst grouping broken: %v %v %v", ps[0].Arrival, ps[9].Arrival, ps[10].Arrival)
	}
}

// TestSubPathsAndHotspot checks random sub-path routing and the sender
// hotspot bias.
func TestSubPathsAndHotspot(t *testing.T) {
	s := core.NewScenario(6, 11)
	w := NewWorkload(400)
	w.RandomSubPaths = true
	w.HotspotFraction = 0.7
	w.HotspotSender = 2
	ps := population(s, w)
	hot, sub := 0, 0
	for _, p := range ps {
		if p.Sender < 0 || p.Receiver > 6 || p.Sender >= p.Receiver {
			t.Fatalf("invalid route c%d -> c%d", p.Sender, p.Receiver)
		}
		if p.Base < 1 || p.amountVia(0, w.Commission) != p.Base+int64(p.hops()-1)*w.Commission {
			t.Fatalf("route %s pays %d, its first hop %d", p.ID, p.Base, p.amountVia(0, w.Commission))
		}
		if p.Sender == 2 {
			hot++
		}
		if p.hops() < 6 {
			sub++
		}
	}
	if hot < 200 {
		t.Fatalf("hotspot bias missing: only %d/400 from c2", hot)
	}
	if sub == 0 {
		t.Fatal("no sub-path payments generated")
	}
	// And the traffic run over sub-paths still audits cleanly.
	res, err := Run(s, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.AuditErr != nil {
		t.Fatalf("audit failed: %v", res.AuditErr)
	}
	if res.Succeeded == 0 {
		t.Fatal("no sub-path payment succeeded")
	}
}

// TestFaultyTrafficRefunds injects a silent connector into the shared
// chain: payments routed through it must fail at the protocol level and
// have their liquidity refunded, never lost.
func TestFaultyTrafficRefunds(t *testing.T) {
	s := core.NewScenario(4, 5).SetFault(core.CustomerID(2), core.FaultSpec{Silent: true})
	w := NewWorkload(100)
	w.Arrival.Rate = 200
	res, err := Run(s, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Fatalf("expected protocol failures with a silent connector:\n%s", res)
	}
	if res.AuditErr != nil {
		t.Fatalf("audit failed: %v", res.AuditErr)
	}
	if res.PendingLocks != 0 {
		t.Fatalf("%d locks stuck after refunds", res.PendingLocks)
	}
}

// TestSubScenarioTranslation checks that faults and patience on the shared
// chain are re-indexed onto each payment's private sub-chain.
func TestSubScenarioTranslation(t *testing.T) {
	base := core.NewScenario(5, 1).
		SetFault(core.CustomerID(2), core.FaultSpec{Silent: true}).
		SetFault(core.EscrowID(1), core.FaultSpec{StealEscrow: true}).
		SetPatience(core.CustomerID(3), 7*sim.Second)
	p := &payment{Index: 0, ID: "p", Sender: 1, Receiver: 4, Base: 10, Seed: 99}
	sm := simulator{commission: 10}
	sub := sm.subScenario(&base, nil, p)
	if sub.Topology.N != 3 {
		t.Fatalf("sub-chain has %d escrows, want 3", sub.Topology.N)
	}
	if !sub.FaultOf(core.CustomerID(1)).Silent {
		t.Fatal("fault on chain c2 not translated to sub c1")
	}
	if !sub.FaultOf(core.EscrowID(0)).StealEscrow {
		t.Fatal("fault on chain e1 not translated to sub e0")
	}
	if sub.PatienceOf(core.CustomerID(2)) != 7*sim.Second {
		t.Fatal("patience on chain c3 not translated to sub c2")
	}
	if want := []int64{30, 20, 10}; !slices.Equal(sub.Spec.Amounts, want) {
		t.Fatalf("sub-run pays %v hop by hop, want %v", sub.Spec.Amounts, want)
	}
	if sub.Seed != 99 {
		t.Fatalf("sub-run does not use the payment's private seed: %d", sub.Seed)
	}
	if err := sub.Validate(); err != nil {
		t.Fatalf("sub-scenario invalid: %v", err)
	}
}

// TestSubScenarioForgetsFaults: a worker writes every payment's sub-scenario
// over the last one's, fault and patience maps included, so what a faulted
// payment was given must be gone by the next payment: one whose route crosses
// no Byzantine or impatient participant reads no fault and no patience.
func TestSubScenarioForgetsFaults(t *testing.T) {
	base := core.NewScenario(5, 1).
		SetFault(core.CustomerID(2), core.FaultSpec{Silent: true}).
		SetFault(core.EscrowID(1), core.FaultSpec{StealEscrow: true}).
		SetPatience(core.CustomerID(2), 7*sim.Second)
	var sm simulator
	faulted := sm.subScenario(&base, nil, &payment{ID: "faulted", Sender: 1, Receiver: 4, Base: 10, Seed: 1})
	if len(faulted.Faults) != 2 || len(faulted.Patience) != 1 {
		t.Fatalf("route c1..c4 has faults %v and patience %v, want two faults and one patience", faulted.Faults, faulted.Patience)
	}
	honest := sm.subScenario(&base, nil, &payment{ID: "honest", Sender: 3, Receiver: 5, Base: 10, Seed: 2})
	if honest.Faults != nil || honest.Patience != nil {
		t.Fatalf("route c3..c5 kept the previous payment's faults %v and patience %v", honest.Faults, honest.Patience)
	}
	for _, id := range honest.Topology.Participants() {
		if honest.FaultOf(id).IsByzantine() || honest.PatienceOf(id) != 0 {
			t.Fatalf("%s of an honest route reads fault %+v, patience %v", id, honest.FaultOf(id), honest.PatienceOf(id))
		}
	}
}

// TestPaymentSeedDerivation checks per-payment seeds are stable and
// pairwise distinct.
func TestPaymentSeedDerivation(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 2000; i++ {
		s := paymentSeed(42, i)
		if s < 0 {
			t.Fatalf("negative derived seed at %d", i)
		}
		if seen[s] {
			t.Fatalf("seed collision at payment %d", i)
		}
		seen[s] = true
		if s != paymentSeed(42, i) {
			t.Fatalf("seed derivation unstable at %d", i)
		}
	}
	if paymentSeed(42, 0) == paymentSeed(43, 0) {
		t.Fatal("scenario seed does not influence payment seeds")
	}
}

// TestSweepDeterministicOrdering runs a grid in parallel and serially and
// requires identical outcomes in identical order.
func TestSweepDeterministicOrdering(t *testing.T) {
	w := NewWorkload(40)
	seeds := []int64{1, 2, 3}
	points := append(SeedSweep(core.NewScenario(2, 0), w, seeds), SeedSweep(core.NewScenario(4, 0), w, seeds)...)
	if len(points) != 6 {
		t.Fatalf("grid built %d points", len(points))
	}
	par := Sweep(points, Config{Workers: 4})
	ser := Sweep(points, Config{Workers: 1})
	for i := range points {
		if par[i].Err != nil || ser[i].Err != nil {
			t.Fatalf("sweep errors: %v / %v", par[i].Err, ser[i].Err)
		}
		if par[i].Point.Label != points[i].Label {
			t.Fatalf("outcome %d out of order: %s", i, par[i].Point.Label)
		}
		if par[i].Result.String() != ser[i].Result.String() {
			t.Fatalf("point %s differs between parallel and serial sweep:\n%s\nvs\n%s",
				points[i].Label, par[i].Result, ser[i].Result)
		}
	}
}

// TestWorkloadValidation covers the error paths of RunWith.
func TestWorkloadValidation(t *testing.T) {
	s := core.NewScenario(3, 1)
	if _, err := Run(s, Workload{}); err == nil {
		t.Fatal("empty workload accepted")
	}
	w := NewWorkload(5).WithMix(ProtocolShare{Name: "no-such-protocol", Weight: 1})
	if _, err := Run(s, w); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	w = NewWorkload(5)
	w.Arrival.Kind = "bogus"
	if _, err := Run(s, w); err == nil {
		t.Fatal("bogus arrival kind accepted")
	}
	// A negative commission drives upstream hop amounts to zero and below.
	w = NewWorkload(5)
	w.Commission = -1
	if _, err := Run(s, w); err == nil {
		t.Fatal("negative commission accepted")
	}
	// Magnitudes near the int64 range overflow the generator's draws (this
	// spread panicked rand.Int63n) and the ledgers' sums.
	w = NewWorkload(5)
	w.Amounts = AmountDist{Kind: AmountUniform, Base: 100, Spread: 1 << 62}
	if _, err := Run(s, w); err == nil {
		t.Fatal("overflowing amount spread accepted")
	}
	w = NewWorkload(5)
	w.Arrival.Rate = 1e-300
	if _, err := Run(s, w); err == nil {
		t.Fatal("arrival rate whose gaps overflow virtual time accepted")
	}
	// Zero total weight would silently resolve every payment to mix[0].
	w = NewWorkload(5).WithMix(
		ProtocolShare{Name: "timelock", Weight: 0},
		ProtocolShare{Name: "htlc", Weight: 0},
	)
	if _, err := Run(s, w); err == nil {
		t.Fatal("all-zero-weight mix accepted")
	}
	// Hotspot fields without RandomSubPaths are silently ignored by
	// generation; Validate must reject them instead.
	w = NewWorkload(5)
	w.HotspotFraction = 0.5
	if _, err := Run(s, w); err == nil {
		t.Fatal("hotspot fraction without RandomSubPaths accepted")
	}
	w = NewWorkload(5)
	w.HotspotSender = 1
	if _, err := Run(s, w); err == nil {
		t.Fatal("hotspot sender without RandomSubPaths accepted")
	}
	// And with RandomSubPaths a hot sender outside the chain is rejected.
	w = NewWorkload(5)
	w.RandomSubPaths = true
	w.HotspotFraction = 0.5
	w.HotspotSender = 99
	if _, err := Run(s, w); err == nil {
		t.Fatal("out-of-chain hotspot sender accepted")
	}
}

// TestStreamingAggregatesOnly checks aggregate-only retention: per-payment
// records are dropped, every exact aggregate matches a run that kept them,
// and the histogram percentiles stay within the documented 1% relative error
// of the exact ones.
func TestStreamingAggregatesOnly(t *testing.T) {
	s := core.NewScenario(5, 42)
	w := NewWorkload(400)
	w.Arrival.Rate = 500
	w = w.WithMix(mixed...)

	ref, err := RunWith(s, w, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunWith(s, w, Config{Workers: 2, Stream: true, Exemplars: 10})
	if err != nil {
		t.Fatal(err)
	}
	requireSameAggregates(t, "aggregate-only", got, ref)
	if got.AuditErr != nil {
		t.Fatalf("audit failed with records dropped: %v", got.AuditErr)
	}
	if len(got.Exemplars) != 10 {
		t.Fatalf("reservoir kept %d exemplars, want 10", len(got.Exemplars))
	}
	// The reservoir is deterministic: a rerun picks the same payments.
	again, err := RunWith(s, w, Config{Workers: 3, Stream: true, Exemplars: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Exemplars, again.Exemplars) {
		t.Fatal("exemplar reservoir not deterministic across worker counts")
	}
	if got.PaymentTable() == "" {
		t.Fatal("PaymentTable empty despite exemplars")
	}

	// The reservoir draws in settlement order, so on the bursty workload
	// (many same-instant settlements) the whole aggregate-only Result and
	// its exemplars must not depend on the worker count either.
	bs, bw := burstyScenario(), burstyWorkload(false)
	one, err := RunWith(bs, bw, Config{Workers: 1, Stream: true, Exemplars: 16})
	if err != nil {
		t.Fatal(err)
	}
	four, err := RunWith(bs, bw, Config{Workers: 4, Stream: true, Exemplars: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Exemplars) != 16 {
		t.Fatalf("bursty run retained %d exemplars, want 16", len(one.Exemplars))
	}
	if four.String() != one.String() {
		t.Fatalf("bursty aggregates differ across worker counts:\n got: %s\nwant: %s", four, one)
	}
	if !reflect.DeepEqual(four.Exemplars, one.Exemplars) {
		t.Fatalf("bursty exemplar reservoirs differ across worker counts:\n got: %v\nwant: %v", four.Exemplars, one.Exemplars)
	}
}

// TestOfferedRateSingleBurst is the regression test for offered load being
// reported as zero when every arrival lands at t=0: a one-burst workload
// must fall back to a one-tick measurement window.
func TestOfferedRateSingleBurst(t *testing.T) {
	s := core.NewScenario(2, 3)
	w := NewWorkload(20)
	w.Arrival = Arrival{Kind: ArrivalBurst, BurstSize: 20, BurstGap: sim.Second}
	res, err := Run(s, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 20 {
		t.Fatalf("ran %d payments, want 20", res.Total)
	}
	if res.OfferedRate <= 0 {
		t.Fatalf("single-burst offered rate reported as %v, want > 0", res.OfferedRate)
	}
}

// TestStreamingSmoke pushes 20k payments through an aggregate-only run on a
// short chain — the scaled-down in-package version of the million-payment
// CLI run. It runs on hmac: CI drives the CLI at 100k payments on ed25519
// (see .github/workflows/ci.yml) and the lattice's ed25519 column covers
// backend neutrality. Skipped under -short so the race-detector job stays
// quick.
func TestStreamingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bulk streaming smoke skipped in -short mode")
	}
	s := core.NewScenario(2, 42)
	w := NewWorkload(20_000)
	w.Arrival.Rate = 20_000
	res, err := RunWith(s, w, Config{Stream: true, Exemplars: 5, Crypto: "hmac"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 20_000 {
		t.Fatalf("ran %d payments, want 20000", res.Total)
	}
	if res.Payments != nil {
		t.Fatal("streaming smoke retained per-payment records")
	}
	if res.Succeeded == 0 {
		t.Fatal("no payment succeeded")
	}
	if res.AuditErr != nil {
		t.Fatalf("audit failed: %v", res.AuditErr)
	}
	if res.PendingLocks != 0 {
		t.Fatalf("%d locks left pending", res.PendingLocks)
	}
}

// TestWorkerCountIsCapped: a worker count far beyond the population's chunks
// used to size the pipeline's channels (a 10^12-worker request took the
// process down allocating them); it now runs like any other count.
func TestWorkerCountIsCapped(t *testing.T) {
	s := core.NewScenario(2, 1)
	s.Crypto = "hmac"
	ref, err := RunWith(s, NewWorkload(20), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunWith(s, NewWorkload(20), Config{Workers: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "workers=2^40", got, ref)
}

// TestCryptoBackendValidation: unknown backend names are rejected up front,
// and Config.Crypto overrides the scenario's selection.
func TestCryptoBackendValidation(t *testing.T) {
	s := core.NewScenario(2, 1)
	w := NewWorkload(5)
	if _, err := RunWith(s, w, Config{Crypto: "rot13"}); err == nil {
		t.Fatal("unknown Config.Crypto accepted")
	}
	s.Crypto = "rot13"
	if _, err := RunWith(s, w, Config{}); err == nil {
		t.Fatal("unknown Scenario.Crypto accepted")
	}
	if _, err := RunWith(s, w, Config{Crypto: "hmac"}); err != nil {
		t.Fatalf("Config.Crypto should override the scenario's backend: %v", err)
	}
}

// TestSweepMetricsIsolation is the regression test for the shared-registry
// seam: Sweep used to copy the Config per cell but share the one
// cfg.Metrics pointer across concurrently running cells, so live gauges
// fought each other and counters blurred the cells together. Each cell must
// get its own labelled registry whose counters match that cell's Result
// exactly.
func TestSweepMetricsIsolation(t *testing.T) {
	w := NewWorkload(120)
	w.Arrival.Rate = 600
	points := []Point{
		{Label: "a", Scenario: core.NewScenario(4, 1), Workload: w},
		{Label: "b", Scenario: core.NewScenario(6, 2), Workload: w},
	}
	outcomes := Sweep(points, Config{Workers: 2, Metrics: metrics.NewRegistry()})
	if outcomes[0].Metrics == nil || outcomes[1].Metrics == nil {
		t.Fatal("sweep cells did not receive private registries")
	}
	if outcomes[0].Metrics == outcomes[1].Metrics {
		t.Fatal("concurrent sweep cells share one registry")
	}
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		snap := o.Metrics.Snapshot()
		counters := map[string]float64{}
		cellLabelled := false
		for _, fam := range snap {
			for _, sample := range fam.Samples {
				counters[fam.Name] += sample.Value
				if strings.Contains(sample.Labels, `cell="`+o.Point.Label+`"`) {
					cellLabelled = true
				}
			}
		}
		if !cellLabelled {
			t.Fatalf("cell %q: no sample carries its cell label", o.Point.Label)
		}
		if got, want := counters[MetricPaymentsGenerated], float64(o.Result.Total); got != want {
			t.Fatalf("cell %q: generated counter %v, want %v (cross-cell bleed?)", o.Point.Label, got, want)
		}
		if got, want := counters[MetricPaymentsSettled], float64(o.Result.Succeeded); got != want {
			t.Fatalf("cell %q: settled counter %v, want %v (cross-cell bleed?)", o.Point.Label, got, want)
		}
	}
}

// TestQueueExpiryAttribution pins the queue-expiry drop path: Queued,
// QueueWait and DropCause are set by the expiry timer itself, not only where
// a waiter is re-admitted (a dropped payment never gets there). Every
// dropped payment in a starved honest run must carry its full queueing
// history.
func TestQueueExpiryAttribution(t *testing.T) {
	s := core.NewScenario(3, 11)
	w := NewWorkload(200)
	w.Arrival.Rate = 2000
	w = w.WithLiquidity(300).WithQueue(500*sim.Millisecond, 0)

	res, err := Run(s, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatalf("starved workload dropped nothing:\n%s", res)
	}
	for _, p := range res.Payments {
		if p.Status != StatusDropped {
			continue
		}
		if !p.Queued {
			t.Fatalf("expired payment %s not marked Queued: %+v", p.ID, p)
		}
		if p.QueueWait <= 0 || p.QueueWait != p.End-p.Arrival {
			t.Fatalf("expired payment %s has inconsistent QueueWait: %+v", p.ID, p)
		}
		if p.DropCause != CauseCapacity {
			t.Fatalf("honest expiry misattributed to %q: %+v", p.DropCause, p)
		}
	}
}
