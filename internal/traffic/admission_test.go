package traffic

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/race"
	"repro/internal/sim"
)

// The execution lattice's serial reference runs the same timeline as every
// cell it is compared with, so it cannot see a change to admission itself.
// These tests can: a model of admission as it was first written, digests of
// whole Results recorded before the waiter index existed, the index's own
// invariant checked after every drain pass, and an allocation gate on the
// refused attempt.

// admissionInput is one liquidity-bound run. digest is the SHA-256 of
// RunWith's marshalled Result and final book wealth on it, recorded at the
// commit before admission read balances and settlements woke by account
// (PR 14, 46b7359): the replacement must not move a byte of it.
type admissionInput struct {
	name      string
	s         core.Scenario
	w         Workload
	exercises func(r *Result) bool
	digest    string
}

// admittedFromQueue counts the payments that waited and were then admitted.
func admittedFromQueue(r *Result) int {
	n := 0
	for i := range r.Payments {
		if p := &r.Payments[i]; p.Queued && p.Status != StatusDropped {
			n++
		}
	}
	return n
}

func admissionInputs() []admissionInput {
	scenario := func(n int, seed int64, silent ...int) core.Scenario {
		s := core.NewScenario(n, seed)
		s.Crypto = "hmac"
		for _, c := range silent {
			s = s.SetFault(core.CustomerID(c), core.FaultSpec{Silent: true})
		}
		return s
	}
	subpaths := func(payments int, rate float64, liquidity int64, patience sim.Time, maxQueue int) Workload {
		w := NewWorkload(payments).WithLiquidity(liquidity).WithQueue(patience, maxQueue)
		w.Arrival.Rate = rate
		w.RandomSubPaths = true
		return w
	}
	// Refunds are what re-admit: releases move value downstream for good.
	woken := func(r *Result) bool { return r.Failed > 0 && admittedFromQueue(r) > 0 && r.Dropped > 0 }

	honest := subpaths(2500, 4000, 16000, sim.Second, 0)
	honest.Amounts = AmountDist{Kind: AmountUniform, Base: 100, Spread: 60}
	capped := subpaths(2000, 3000, 3000, 800*sim.Millisecond, 40)
	capped.Amounts = AmountDist{Kind: AmountExponential, Base: 100}
	bursts := NewWorkload(1200).WithMix(mixed...).WithLiquidity(2000).WithQueue(2*sim.Second, 0)
	bursts.Arrival = Arrival{Kind: ArrivalBurst, BurstSize: 60, BurstGap: 150 * sim.Millisecond}
	bursts.Amounts = AmountDist{Kind: AmountUniform, Base: 100, Spread: 40}

	return []admissionInput{
		{name: "honest-subpaths", s: scenario(8, 5), w: honest,
			// Honest settlements only release: nobody ever leaves the queue
			// except by running out of patience.
			exercises: func(r *Result) bool { return r.Dropped > 500 && admittedFromQueue(r) == 0 },
			digest:    "6a666c98ad980af3268e68afc7c562fa012d13e240daa5662561686978dd8069"},
		{name: "silent-connectors", s: scenario(6, 11, 2, 4), w: subpaths(2000, 3000, 3000, 1500*sim.Millisecond, 0),
			exercises: woken,
			digest:    "45d77e48087ba822939b4f4130635b312877931200953deef9a181a2d8baea13"},
		{name: "capped-queue-exponential", s: scenario(6, 3, 3), w: capped,
			exercises: func(r *Result) bool { return woken(r) && r.Rejected > 0 },
			digest:    "bac64307bbaa60445e6e1316e9fa19beff5357abf2f2888b91cde86457415046"},
		{name: "full-path-bursts", s: scenario(4, 9, 2), w: bursts,
			exercises: woken,
			digest:    "912989c989cb8c44b82e15a997359170fe438317d5b819ea2643b5f0e2b630c0"},
	}
}

// resultDigest hashes everything a run computed: the Result as JSON (every
// aggregate and per-payment record) and the final wealth of the book.
func resultDigest(t *testing.T, r *Result) string {
	t.Helper()
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(r); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(r.Book.SnapshotWealth()); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// naiveFlight is one payment of the naive model.
type naiveFlight struct {
	p        *payment
	sub      subOutcome
	pr       PaymentResult
	attempts int
	lockID   string
	expiry   sim.Timer
}

// naiveRun is admission as this package first had it, kept as the model the
// real timeline is compared against: an attempt locks hop by hop under a
// fresh "<id>#<attempt>" ID and refunds what it locked when a later hop is
// exhausted, and every settlement re-tries the whole queue in arrival order.
// Quadratic, wasteful and plainly right. It fills res from the simulated
// population in src and returns the lock ID each admitted payment held.
// Faults must be static (Scenario.Faults); it does not replay a fault plan.
func naiveRun(t *testing.T, s core.Scenario, w Workload, src *sliceSource, res *Result) map[int]string {
	t.Helper()
	if plan := w.Faults.compile(s); plan != nil && (len(plan.injected) > 0 || plan.hasManager) {
		t.Fatal("the naive model does not replay fault plans")
	}
	ledgerOf := func(e int) *ledger.Ledger { return res.Book.MustGet(core.EscrowID(e)) }
	static := map[int]bool{}
	for i := 1; i < s.Topology.N; i++ {
		if s.FaultOf(core.CustomerID(i)).IsByzantine() {
			static[i] = true
			ledgerOf(i-1).SetByzantine(ledgerOf(i-1).PID(core.CustomerID(i)), true)
			ledgerOf(i).SetByzantine(ledgerOf(i).PID(core.CustomerID(i)), true)
		}
	}
	observeHeld := func() {
		var held int64
		for e := 0; e < s.Topology.N; e++ {
			held += ledgerOf(e).ByzantineEscrowed()
		}
		res.PeakByzantineHeld = max(res.PeakByzantineHeld, held)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}

	eng := sim.NewEngine(res.Seed)
	agg := newAggregator(res, true, 0)
	var queue []*naiveFlight
	lockIDs := map[int]string{}
	inFlight := 0
	finish := func(f *naiveFlight) {
		agg.observe(res, &f.pr)
		res.Payments[f.p.Index] = f.pr
	}
	attempt := func(f *naiveFlight, now sim.Time) bool {
		id := fmt.Sprintf("%s#%d", f.p.ID, f.attempts)
		f.attempts++
		for k := range f.p.hops() {
			e, amount := f.p.Sender+k, f.p.amountVia(k, w.Commission)
			if _, err := ledgerOf(e).CreateLock(now, id, core.CustomerID(e), core.CustomerID(e+1), amount, ledger.Condition{}); err != nil {
				for j := k - 1; j >= 0; j-- {
					must(ledgerOf(f.p.Sender+j).Refund(now, id, now))
				}
				return false
			}
		}
		f.lockID = id
		observeHeld()
		return true
	}
	var start func(f *naiveFlight, now sim.Time)
	start = func(f *naiveFlight, now sim.Time) {
		f.pr.Start = now
		inFlight++
		res.PeakInFlight = max(res.PeakInFlight, inFlight)
		eng.ScheduleArgIn(f.sub.duration, "settle", func(any) {
			end := eng.Now()
			f.pr.End = end
			switch {
			case f.sub.err() != nil:
				f.pr.Status = StatusError
			case f.sub.paid:
				f.pr.Status = StatusOK
			default:
				f.pr.Status = StatusProtocolFailed
			}
			for k := range f.p.hops() {
				if f.pr.Status == StatusOK {
					must(ledgerOf(f.p.Sender+k).Release(end, f.lockID, nil, end))
				} else {
					must(ledgerOf(f.p.Sender+k).Refund(end, f.lockID, end))
				}
			}
			lockIDs[f.p.Index] = f.lockID
			observeHeld()
			inFlight--
			finish(f)
			waiting := queue
			queue = nil
			for _, q := range waiting {
				if !attempt(q, end) {
					queue = append(queue, q)
					continue
				}
				q.expiry.Cancel()
				q.pr.Queued = true
				q.pr.QueueWait = end - q.p.Arrival
				start(q, end)
			}
		}, nil)
	}

	var fired uint64
	for i, p := range src.pays {
		_, n := eng.RunBefore(p.Arrival, 0)
		fired += n + 1 // the arrival itself counts as an event
		now := eng.Now()
		f := &naiveFlight{p: p, sub: src.subs[i], pr: PaymentResult{
			ID: p.ID, Sender: p.Sender, Receiver: p.Receiver,
			Amount: p.amountVia(p.hops()-1, w.Commission), Volume: p.amountVia(0, w.Commission), Hops: p.hops(),
			Protocol: w.mix()[p.proto].Name, Arrival: p.Arrival, Faulted: src.subs[i].byz,
		}}
		if f.sub.err() == nil {
			f.pr.SubEvents = f.sub.events
		}
		if len(f.sub.safety()) > 0 {
			t.Fatalf("sub-run of %s violated safety: %v", p.ID, f.sub.safety())
		}
		switch {
		case attempt(f, now):
			start(f, now)
		case w.QueuePatience <= 0 || (w.MaxQueue > 0 && len(queue) >= w.MaxQueue):
			f.pr.Status, f.pr.End = StatusRejected, now
			finish(f)
		default:
			f.expiry = eng.ScheduleArgIn(w.QueuePatience, "expire", func(any) {
				queue = slices.DeleteFunc(queue, func(q *naiveFlight) bool { return q == f })
				f.pr.Status, f.pr.End, f.pr.Queued = StatusDropped, eng.Now(), true
				f.pr.QueueWait = f.pr.End - p.Arrival
				f.pr.DropCause = CauseCapacity
				for c := p.Sender + 1; c < p.Receiver; c++ {
					if static[c] {
						f.pr.DropCause = CauseFaultedPath
					}
				}
				if f.sub.byz {
					f.pr.DropCause = CauseFaultedPath
				}
				finish(f)
			}, nil)
			queue = append(queue, f)
		}
	}
	_, n := eng.Run(0)
	res.TimelineEvents = fired + n
	agg.finalize(res)
	return lockIDs
}

// indexedRun runs the real timeline over src, filling res, with afterPass
// called at the end of every drain pass, and returns the lock ID each
// admitted payment held when it settled: the ID its locks were keyed by.
func indexedRun(t *testing.T, s core.Scenario, w Workload, src *sliceSource, res *Result, afterPass func(tl *timeline)) map[int]string {
	t.Helper()
	ps, err := resolveProtocols(w, DefaultProtocols())
	if err != nil {
		t.Fatal(err)
	}
	tl := newTimeline(res, w, &ps, w.Faults.compile(s), true, 0, nil, RunMetrics{}, nil)
	lockIDs := map[int]string{}
	tl.afterPass = func(settled *flight) {
		lockIDs[settled.index] = settled.lockID()
		if afterPass != nil {
			afterPass(tl)
		}
	}
	if err := tl.execute(src, nil, nil); err != nil {
		t.Fatal(err)
	}
	return lockIDs
}

// TestAdmissionMatchesNaiveModel runs the naive model and the real timeline
// over the same simulated populations — honest sub-paths, static silent
// connectors whose refunds really wake waiters, a capped queue, uniform and
// exponential amounts — and requires byte-identical Results and the same
// lock ID for every admitted payment, then pins RunWith's full pipeline on
// the same inputs to the model and to the digest recorded before the
// replacement.
func TestAdmissionMatchesNaiveModel(t *testing.T) {
	for _, in := range admissionInputs() {
		t.Run(in.name, func(t *testing.T) {
			src, modelRes := simulatedRun(in.s, in.w, nil, DefaultProtocols())
			realRes := *modelRes
			realRes.Payments = make([]PaymentResult, len(modelRes.Payments))
			realRes.Book = newLiquidityBook(in.s, in.w, nil)

			modelLocks := naiveRun(t, in.s, in.w, src, modelRes)
			if modelRes.AuditErr != nil || modelRes.PendingLocks != 0 {
				t.Fatalf("model failed its accounting:\n%s", modelRes)
			}
			if !in.exercises(modelRes) {
				t.Fatalf("input does not exercise what it is named after (%d admitted from the queue):\n%s",
					admittedFromQueue(modelRes), modelRes)
			}
			src.i = 0
			realLocks := indexedRun(t, in.s, in.w, src, &realRes, nil)
			requireSameResult(t, "timeline vs naive model", &realRes, modelRes)
			if !reflect.DeepEqual(realLocks, modelLocks) {
				t.Fatal("admitted payments hold different lock IDs than under the naive model")
			}

			got, err := RunWith(in.s, in.w, Config{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "RunWith vs naive model", got, modelRes)
			if d := resultDigest(t, got); d != in.digest {
				t.Fatalf("Result digest %s, recorded %s", d, in.digest)
			}
		})
	}
}

// TestWaiterIndexInvariant checks, after every drain pass of a faulted
// liquidity-bound run, what makes waking by credited account sound: every
// queued payment is filed exactly once, under an escrow whose payer balance
// cannot cover its hop there — so none is admissible — and the per-account
// lists add up to the queue length.
func TestWaiterIndexInvariant(t *testing.T) {
	s := core.NewScenario(8, 21)
	s.Crypto = "hmac"
	w := NewWorkload(3000).WithLiquidity(10000).WithQueue(1200*sim.Millisecond, 0)
	w.Arrival.Rate = 3000
	w.RandomSubPaths = true
	w.Amounts = AmountDist{Kind: AmountUniform, Base: 100, Spread: 50}
	w.Faults = FaultPlan{Fraction: 0.4, Behaviours: []string{"silent", "refuse-payment"}, From: 5 * sim.Millisecond, Stagger: 60 * sim.Millisecond, Outage: 700 * sim.Millisecond}

	plan := w.Faults.compile(s)
	src, res := simulatedRun(s, w, plan, DefaultProtocols())
	passes, deepest := 0, 0
	indexedRun(t, s, w, src, res, func(tl *timeline) {
		passes++
		filed := 0
		for e, ws := range tl.waiters {
			filed += len(ws)
			for slot, f := range ws {
				if !f.inQueue || int(f.refused) != e || int(f.slot) != slot {
					t.Fatalf("pass %d: %s filed under e%d slot %d but records inQueue=%v e%d slot %d",
						passes, f.id(), e, slot, f.inQueue, f.refused, f.slot)
				}
				if have, need := tl.ledgers[e].Balance(tl.payers[e]), f.amountVia(e-int(f.sender), w.Commission); have >= need {
					t.Fatalf("pass %d: %s waits on e%d, which holds %d for its %d", passes, f.id(), e, have, need)
				}
			}
		}
		if filed != tl.qlen {
			t.Fatalf("pass %d: %d waiters filed, queue length %d", passes, filed, tl.qlen)
		}
		deepest = max(deepest, filed)
	})
	if res.AuditErr != nil || res.CascadeErr != nil || res.PendingLocks != 0 {
		t.Fatalf("run failed its accounting:\n%s", res)
	}
	if passes != res.Succeeded+res.Failed+res.Errored {
		t.Fatalf("%d drain passes for %d settlements", passes, res.Succeeded+res.Failed+res.Errored)
	}
	if admittedFromQueue(res) == 0 || res.Dropped == 0 || deepest < 50 {
		t.Fatalf("run never stressed the index (%d admitted from the queue, deepest queue %d):\n%s",
			admittedFromQueue(res), deepest, res)
	}
}

// TestRefusedAdmissionAllocs gates the cost of the attempt that dominates a
// starved run: refusing a payment is a few balance reads and allocates
// nothing (it used to build a lock ID, and lock, fail and roll back through
// the ledgers: 1 + at least 4 allocations).
func TestRefusedAdmissionAllocs(t *testing.T) {
	s := core.NewScenario(4, 1)
	w := NewWorkload(1).WithLiquidity(100)
	w.Commission = 0
	res := &Result{Chain: 4, Seed: 1, Workload: w, Book: newLiquidityBook(s, w, nil)}
	tl := newTimeline(res, w, &protocols{}, nil, false, 0, nil, RunMetrics{}, nil)
	// The first two hops fit; e2 cannot cover the third.
	e2 := res.Book.MustGet(core.EscrowID(2))
	if _, err := e2.Escrow(0, "drain", e2.PID(core.CustomerID(2)), e2.PID(core.CustomerID(3)), 1, ledger.Condition{}); err != nil {
		t.Fatal(err)
	}
	f := &flight{sender: 0, receiver: 4, base: 100}
	ops := res.Book.TotalOps()
	allocs := testing.AllocsPerRun(200, func() {
		if tl.admit(f, 0, 7) {
			t.Fatal("admitted a payment its third hop cannot cover")
		}
	})
	if allocs != 0 {
		t.Errorf("a refused admission attempt allocates %v times, want 0", allocs)
	}
	if f.refused != 2 {
		t.Errorf("refusing escrow recorded as e%d, want e2", f.refused)
	}
	if got := res.Book.TotalOps(); got != ops {
		t.Errorf("refused attempts performed %d ledger operations, want none", got-ops)
	}
}

// TestStreamedPaymentAllocs pins what a streamed payment allocates, end to
// end, on the repository benchmark's traffic populations (hmac, one worker).
// Chunks, flights and the engines' event slots are recycled, and flights
// are made in blocks; a chunk's IDs are cut from one string, and a chunk
// goes back to the producer once the timeline has read it; the timeline's
// locks are held by the ledgers without a record and its events are
// pointer-free entries of its sim.Queue; the protocol run renders no lock ID,
// keeps its hashlock and timeout parameters, and the simulator its list of
// safety failures. What is left is what the pipeline and the engine amortise
// over a run, and byz_mix's failing verdicts' details. The budgets are the
// measured 0.038, 0.30 and 0.50 allocations and 228, 369 and 189 bytes plus
// slack (they were 0.14, 0.44 and 0.56 and 586, 544 and 373 while flights
// held their chunks and the ledgers recorded every traffic lock, and 1.90,
// 3.76 and 2.94 allocations while every payment rendered its ID and the
// engine made a record per event).
func TestStreamedPaymentAllocs(t *testing.T) {
	budgets := map[string]struct {
		allOK         bool // every payment succeeds: no refusal, timeout or fault
		allocs, bytes float64
	}{
		"open":        {true, 0.1, 260},
		"bound_queue": {false, 0.4, 410},
		"byz_mix":     {false, 0.6, 220},
	}
	for _, bp := range benchPopulations() {
		tc := budgets[bp.name]
		t.Run(bp.name, func(t *testing.T) {
			s, w := bp.inputs()
			cfg := Config{Stream: true, Workers: 1}
			if _, err := RunWith(s, w, cfg); err != nil { // fill the key cache
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := RunWith(s, w, cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if tc.allOK && res.Succeeded != bp.payments {
				t.Fatalf("%d of %d payments succeeded", res.Succeeded, bp.payments)
			}
			if res.Total != bp.payments || res.Errored != 0 || res.SafetyViolations != 0 {
				t.Fatalf("result %+v", res)
			}
			allocs := float64(after.Mallocs-before.Mallocs) / float64(bp.payments)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(bp.payments)
			t.Logf("%.3f allocations and %.0f bytes per payment", allocs, bytes)
			if race.Enabled {
				return // the detector allocates: the budgets hold in a build without it
			}
			if allocs > tc.allocs {
				t.Errorf("a streamed payment allocates %.2f times, budget %v", allocs, tc.allocs)
			}
			if bytes > tc.bytes {
				t.Errorf("a streamed payment allocates %.0f bytes, budget %v", bytes, tc.bytes)
			}
		})
	}
}
