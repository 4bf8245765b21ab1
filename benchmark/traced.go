package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/scenariogen"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/weaklive"
)

// The traced run (--trace 1) attributes cost to layers from outside the
// program, in three passes:
//
//  1. counted pass — the workload's own batches with a live registry and
//     kept payments: exact per-payment work counts, and each payment's
//     shape (hops, protocol, faulted);
//  2. replay pass — for a seeded sample of those shapes the harness plays
//     simulateOne's role through the public APIs, recording one span per
//     layer call;
//  3. leaf probes (probes.go) — unit costs of the calls a protocol run
//     makes internally; leaf busy time = unit cost × counted work.
//
// Protocols are not wrapped via Config.Protocols: simulateOne and
// safetyOwed type-assert *weaklive.Protocol and *htlc.Protocol, so a
// wrapper would silently change the checker options on byz_mix.

// traceRounds is how many rounds of (muted, registry, counted, flipped)
// batches a traced run makes; ratios are taken between round medians.
const traceRounds = 3

// replaySample is how many payment shapes (or fuzz seeds) are replayed with
// spans; replayCounted of them are replayed again for allocation and work
// counts.
const (
	replaySample  = 2000
	replayCounted = 500
)

// layers collects the per-layer metrics of one traced run. Every catalogue
// name starts at 0 ("layer not exercised"); set rejects names outside the
// catalogue, so the emitted set cannot drift from BENCHMARK.json.
type layers map[string]float64

func newLayers() layers {
	l := layers{}
	for _, m := range perLayer {
		l[m.Name] = 0
	}
	return l
}

func (l layers) set(name string, v float64) {
	if _, ok := l[name]; !ok {
		panic("benchmark: metric " + name + " is not in the per-layer catalogue")
	}
	l[name] = v
}

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeSnapshot reads the Go runtime's cumulative GC accounting.
type runtimeSnapshot struct {
	GCCPU, TotalCPU float64 // cpu-seconds
	Cycles          uint64
}

func readRuntime() runtimeSnapshot {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	rtmetrics.Read(s)
	return runtimeSnapshot{GCCPU: s[0].Value.Float64(), TotalCPU: s[1].Value.Float64(), Cycles: s[2].Value.Uint64()}
}

// counts sums the work the program's own counters reported over the counted
// batches.
type counts struct {
	Payments                       float64
	Events, Messages               float64
	ProtocolOps                    float64
	TrafficLocks, TrafficRefunds   float64
	TimelineEvents, SubEvents      float64
	Succeeded, Dropped             float64
	MemoHits, MemoMisses           float64
	KeygenHits, KeygenMisses       float64
	FuzzSeeds, FuzzSkipped, FuzzT2 float64
	LatencyP50Ms, LatencyP99Ms     float64 // first counted batch
	haveLatency                    bool
}

func (c *counts) addRegistry(reg *metrics.Registry) {
	val := func(name string, labels ...string) float64 { return float64(reg.Counter(name, "", labels...).Value()) }
	c.Events += val(sim.MetricEventsFired)
	c.Messages += val(netsim.MetricMessagesSent)
	c.ProtocolOps += val(ledger.MetricOps, "book", "protocol")
	c.TrafficLocks += val(ledger.MetricLocksCreated, "book", "traffic")
	c.TrafficRefunds += val(ledger.MetricLocksRefunded, "book", "traffic")
}

func (c *counts) addSig(before, after sig.Stats) {
	c.MemoHits += float64(after.MemoHits - before.MemoHits)
	c.MemoMisses += float64(after.MemoMisses - before.MemoMisses)
	c.KeygenHits += float64(after.KeygenHits - before.KeygenHits)
	c.KeygenMisses += float64(after.KeygenMisses - before.KeygenMisses)
}

func (c *counts) addResult(res *traffic.Result) {
	c.Payments += float64(res.Total)
	c.TimelineEvents += float64(res.TimelineEvents)
	c.SubEvents += float64(res.SubEventsFired)
	c.Succeeded += float64(res.Succeeded)
	c.Dropped += float64(res.Dropped)
	if c.Payments == float64(res.Total) { // the first result added
		c.LatencyP50Ms, c.LatencyP99Ms = res.LatencyP50Ms, res.LatencyP99Ms
	}
}

// shape is what the replay needs to know about one payment of the counted
// pass.
type shape struct {
	ID       string
	Hops     int
	Protocol string
	Faulted  bool
	Amount   int64 // what the receiver collects
}

// size scales a run: fullSize for the driver, a fraction in tests.
type size struct {
	Ops        int     // operations per batch
	Sample     int     // shapes replayed with spans
	ProbeScale float64 // share of the probes' full loop counts
}

func fullSize(w workload) size { return size{Ops: w.Ops, Sample: replaySample, ProbeScale: 1} }

// runTraced is the --trace 1 run; traceOut, if non-empty, receives the
// Chrome trace.
func runTraced(w workload, seed int64, sz size, traceOut string, log io.Writer) result {
	ops, sampleN := sz.Ops, sz.Sample
	r := result{Correct: true, Metrics: map[string]metric{}}
	L := newLayers()

	warm, _ := setUp(w, seed, ops)
	r.count(warm, "warm-up")

	// Pass 1: rounds of batches on one seed each, so that every ratio
	// compares like with like and the digests must agree.
	var mutedUs, mutedCPU, registryUs, countedUs, flippedUs []float64
	var c counts
	var shapes []shape
	var gcCPU, totalCPU, cycles, mutedOps float64
	for k := 0; k < traceRounds; k++ {
		s := w.batchSeed(seed, k)
		sig0 := sig.GlobalStats()
		rt0 := readRuntime()
		muted, ms := measure(w, s, ops, variant{})
		rt1 := readRuntime()
		sig1 := sig.GlobalStats()
		r.count(muted, fmt.Sprintf("round %d muted", k))
		mutedUs = append(mutedUs, ms.Us)
		mutedCPU = append(mutedCPU, ms.CPUUs)
		gcCPU += rt1.GCCPU - rt0.GCCPU
		totalCPU += rt1.TotalCPU - rt0.TotalCPU
		cycles += float64(rt1.Cycles - rt0.Cycles)
		mutedOps += float64(muted.Ops)

		same := func(b batch, what string) {
			r.count(b, fmt.Sprintf("round %d %s", k, what))
			if b.Digest != muted.Digest {
				r.fail(fmt.Sprintf("round %d: the %s batch computed different simulated statistics than the muted one", k, what))
			}
		}
		if w.Fuzz {
			// The fuzz path takes no registry; its counters are the
			// process-wide sig statistics and the campaign's own Stats.
			c.addSig(sig0, sig1)
			c.Payments += float64(muted.Stats.Runs)
			c.FuzzSeeds += float64(ops)
			c.FuzzSkipped += float64(muted.Stats.Skipped)
			c.Succeeded += float64(muted.Stats.Conforming)
			if k == 0 {
				c.FuzzT2 = float64(muted.Stats.Theorem2Count)
			}
		} else {
			registry, rs := measure(w, s, ops, variant{Registry: metrics.NewRegistry()})
			same(registry, "registry")
			registryUs = append(registryUs, rs.Us)

			reg := metrics.NewRegistry()
			sig0 = sig.GlobalStats()
			counted, cs := measure(w, s, ops, variant{Registry: reg, Keep: true})
			sig1 = sig.GlobalStats()
			// Kept payments make the latency percentiles exact where the
			// muted run estimates them, so the rendered results differ by
			// design; the outcome counts may not.
			r.count(counted, fmt.Sprintf("round %d counted", k))
			if a, b := counted.Res, muted.Res; a != nil && b != nil &&
				[4]int{a.Succeeded, a.Failed, a.Dropped, a.Rejected} != [4]int{b.Succeeded, b.Failed, b.Dropped, b.Rejected} {
				r.fail(fmt.Sprintf("round %d: the counted batch settled payments differently than the muted one", k))
			}
			countedUs = append(countedUs, cs.Us)
			if counted.Res != nil {
				c.addRegistry(reg)
				c.addSig(sig0, sig1)
				c.addResult(counted.Res)
				for _, p := range counted.Res.Payments {
					shapes = append(shapes, shape{ID: p.ID, Hops: p.Hops, Protocol: p.Protocol, Faulted: p.Faulted, Amount: p.Amount})
				}
			}
		}
		flipped, fs := measure(w, s, ops, variant{FlipCores: true})
		same(flipped, "flipped-cores")
		flippedUs = append(flippedUs, fs.Us)
	}
	n := c.Payments
	if n == 0 {
		n = 1 // every batch failed; the counts below are all 0
	}

	muted := summarize(mutedUs)
	L.set("harness.rep_spread", ratio(muted.Max-muted.Min, muted.Med))
	L.set("runtime.cpu_us_per_payment", median(mutedCPU))
	L.set("runtime.gc_cpu_fraction", ratio(gcCPU, totalCPU))
	L.set("runtime.gc_cycles_per_kpayment", ratio(1000*cycles, mutedOps))
	if w.onOneCore() {
		L.set("traffic.parallel_speedup", ratio(muted.Med, median(flippedUs)))
	} else {
		L.set("traffic.parallel_speedup", ratio(median(flippedUs), muted.Med))
	}
	L.set("sig.verifies_per_payment", (c.MemoHits+c.MemoMisses)/n)
	L.set("sig.verify_memo_hit_ratio", ratio(c.MemoHits, c.MemoHits+c.MemoMisses))
	L.set("sig.keygen_cache_hit_ratio", ratio(c.KeygenHits, c.KeygenHits+c.KeygenMisses))
	L.set("model.success_rate", c.Succeeded/n)

	// Pass 2: replay with spans.
	rng := rand.New(rand.NewSource(seed))
	tr := newTracer(4 * sampleN)
	backend, hops := "hmac", 3
	var rep replayStats
	if w.Fuzz {
		rep = replayFuzz(tr, w.batchSeed(seed, 0), ops, sampleN, rng, &r)
		L.set("scenariogen.generate_us", rep.spans["scenariogen.generate"].MeanUs())
		L.set("scenariogen.run_us", rep.spans["scenariogen.run"].MeanUs())
		L.set("harness.trace_overhead_ratio", ratio(rep.spans["replay.scenario"].MeanUs(), median(mutedUs)))
		L.set("sim.events_per_payment", rep.eventsPerRun)
		L.set("model.sub_events_per_payment", rep.eventsPerRun)
		L.set("model.dropped_share", ratio(c.FuzzSkipped, c.FuzzSeeds))
		L.set("model.theorem2_count", c.FuzzT2)
	} else {
		backend = w.Cfg.Crypto
		base := core.NewScenario(w.Chain, seed).WithCrypto(backend)
		sample := make([]shape, 0, sampleN)
		for i := 0; i < sampleN && len(shapes) > 0; i++ {
			sample = append(sample, shapes[rng.Intn(len(shapes))])
		}
		rep = replayTraffic(tr, base, sample, seed, &r)
		hops = max(int(math.Round(rep.meanHops)), 1)

		L.set("harness.trace_overhead_ratio", ratio(median(countedUs), median(mutedUs)))
		L.set("metrics.registry_overhead_ratio", ratio(median(registryUs), median(mutedUs)))
		L.set("traffic.timeline_events_per_payment", c.TimelineEvents/n)
		L.set("traffic.self_us_per_payment", median(mutedCPU)-rep.cpuUs)
		L.set("core.scenario_us", rep.spans["core.scenario"].MeanUs())
		L.set("check.evaluate_us", rep.spans["check.evaluate"].MeanUs())
		L.set("check.evaluate_allocs", rep.checkAllocs)
		L.set("sim.events_per_payment", c.Events/n)
		L.set("netsim.messages_per_payment", c.Messages/n)
		L.set("ledger.protocol_ops_per_payment", c.ProtocolOps/n)
		L.set("ledger.traffic_locks_created_per_payment", c.TrafficLocks/n)
		L.set("ledger.traffic_refund_ratio", ratio(c.TrafficRefunds, c.TrafficLocks))
		L.set("model.dropped_share", c.Dropped/n)
		L.set("model.latency_p50_ms", c.LatencyP50Ms)
		L.set("model.latency_p99_ms", c.LatencyP99Ms)
		L.set("model.sub_events_per_payment", c.SubEvents/n)
	}

	// Pass 3: leaf probes, then protocol self time = run span − leaves.
	pr := runProbes(backend, hops, sz.ProbeScale)
	L.set("sim.engine_new_us", pr.EngineNewUs)
	L.set("sim.event_ns", pr.EventNs)
	L.set("netsim.send_deliver_ns", pr.SendDeliverNs)
	L.set("sig.keyring_new_us", pr.KeyringNewUs)
	L.set("sig.sign_us", pr.SignUs)
	L.set("sig.verify_us", pr.VerifyUs)
	L.set("sig.verify_memo_hit_ns", pr.VerifyHitNs)
	L.set("ledger.lock_cycle_ns", pr.LockCycleNs)
	L.set("core.customer_id_ns", pr.CustomerIDNs)
	L.set("stats.hist_add_ns", pr.HistAddNs)
	for _, name := range []string{"timelock", "htlc", "weaklive"} {
		run := rep.spans[name+".run"].MeanUs()
		L.set(name+".run_us", run)
		if pc, ok := rep.protocols[name]; ok {
			L.set(name+".self_us", run-pc.leafUs(pr).total())
		}
	}
	L.set("timelock.run_allocs", rep.protocols["timelock"].Allocs)
	L.set("weaklive.committee_run_us", rep.spans["weaklive-committee.run"].MeanUs())

	for _, m := range perLayer {
		r.Metrics[m.Name] = metric{Value: L[m.Name], Unit: m.Unit}
	}
	printTraced(log, w, seed, L, rep, pr, &r)
	if traceOut != "" {
		if err := tr.writeChrome(traceOut); err != nil {
			fmt.Fprintf(log, "  trace not written: %v\n", err)
		} else {
			fmt.Fprintf(log, "  %d spans written to %s (open in ui.perfetto.dev)\n", len(tr.spans), traceOut)
		}
	}
	return r
}

// protoCount is the measured work of one protocol's replayed runs, per run.
type protoCount struct {
	Runs                        int
	Allocs                      float64
	Events, Messages, LedgerOps float64
	MemoHits, MemoMisses        float64
}

// leaves is one run's estimated busy time in each leaf layer, in µs.
type leaves struct{ Sim, Netsim, Sig, Ledger float64 }

func (l leaves) total() float64 { return l.Sim + l.Netsim + l.Sig + l.Ledger }

// leafUs prices the counted work with the probes' unit costs. A delivered
// message is also a fired event, so netsim is charged only what Send →
// Deliver costs beyond its event. Signatures are not counted by the
// program; each distinct artefact is signed once and first verified as a
// memo miss, so misses stand in for signs.
func (p protoCount) leafUs(pr probes) leaves {
	return leaves{
		Sim:    pr.EngineNewUs + p.Events*pr.EventNs/1e3,
		Netsim: p.Messages * math.Max(pr.SendDeliverNs-pr.EventNs, 0) / 1e3,
		Sig:    pr.KeyringNewUs + p.MemoMisses*(pr.SignUs+pr.VerifyUs) + p.MemoHits*pr.VerifyHitNs/1e3,
		Ledger: p.LedgerOps * pr.LockCycleNs / 2 / 1e3,
	}
}

// replayStats is what the replay pass hands back.
type replayStats struct {
	spans       map[string]spanStat
	protocols   map[string]protoCount // by mix name
	checkAllocs float64
	meanHops    float64
	// cpuUs is the process CPU the span pass used per replayed payment. Like
	// runtime.cpu_us_per_payment it includes the garbage collector's
	// background work, so the two subtract to traffic.self.
	cpuUs        float64
	eventsPerRun float64 // fuzz: mean Outcome.Events
}

// subSeed derives the private seed of replayed payment i.
func subSeed(seed int64, i int) int64 {
	return int64(splitmix64(uint64(seed)^splitmix64(uint64(i)+0x5eed)) >> 1)
}

// buildSub plays traffic's subScenario for a recorded shape: the route
// becomes its own chain with the payment's private seed, sharing the base
// scenario's key seed (so the key cache serves it) and muted like every
// traffic sub-run. A faulted shape gets one interior connector a behaviour
// from the traffic fault catalogue.
func buildSub(base core.Scenario, sh shape, seed int64) core.Scenario {
	amounts := make([]int64, sh.Hops)
	for k := range amounts {
		amounts[k] = sh.Amount + int64(sh.Hops-1-k)
	}
	spec := core.PaymentSpec{PaymentID: sh.ID, Amounts: amounts}
	sub := core.Scenario{
		Topology:       core.NewTopology(sh.Hops),
		Spec:           spec,
		Timing:         base.Timing,
		Network:        base.Network,
		InitialBalance: spec.AlicePays() * 2,
		Seed:           seed,
		Crypto:         base.Crypto,
		KeySeed:        base.DerivedKeySeed(),
		MuteTrace:      true,
	}
	if sh.Faulted && sh.Hops >= 2 {
		behaviours := traffic.DefaultFaultBehaviours()
		u := uint64(seed)
		connector := 1 + int(u%uint64(sh.Hops-1))
		b := adversary.Behaviour(behaviours[(u>>16)%uint64(len(behaviours))])
		sub = sub.SetFault(core.CustomerID(connector), adversary.Spec(b, base.Timing))
	}
	return sub
}

// checkOptions mirrors simulateOne: Definition 2 for manager-based
// protocols, the eventual Definition 1 otherwise.
func checkOptions(p core.Protocol) check.Options {
	if _, manager := p.(*weaklive.Protocol); manager {
		return check.Def2(0)
	}
	return check.Def1Eventual()
}

// mallocs reads the cumulative allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// replayTraffic replays the sampled shapes: once with spans (muted, like
// the real sub-runs), then the first replayCounted of them twice more per
// protocol — muted for allocation counts, and with a per-protocol registry
// for work counts.
func replayTraffic(tr *tracer, base core.Scenario, sample []shape, seed int64, r *result) replayStats {
	registry := traffic.DefaultProtocols()
	out := replayStats{protocols: map[string]protoCount{}}
	cpu0 := processCPU()
	for i, sh := range sample {
		out.meanHops += float64(sh.Hops) / float64(len(sample))
		trace := i + 1
		root := tr.begin("replay.payment", trace, 0)
		id := tr.begin("core.scenario", trace, root)
		sub := buildSub(base, sh, subSeed(seed, i))
		tr.end(id)
		proto := registry[sh.Protocol]
		id = tr.begin(sh.Protocol+".run", trace, root)
		res, err := proto.Run(sub)
		tr.end(id)
		if err != nil {
			r.fail(fmt.Sprintf("replay of %s (%s): %v", sh.ID, sh.Protocol, err))
			tr.end(root)
			continue
		}
		id = tr.begin("check.evaluate", trace, root)
		report := check.Evaluate(res, checkOptions(proto))
		probeSink = report.SafetyFailures()
		tr.end(id)
		tr.end(root)
	}
	out.cpuUs = ratio(float64((processCPU()-cpu0).Nanoseconds())/1e3, float64(len(sample)))
	out.spans = tr.byName()

	byProto := map[string][]int{}
	for i, sh := range sample[:min(len(sample), replayCounted)] {
		byProto[sh.Protocol] = append(byProto[sh.Protocol], i)
	}
	names := make([]string, 0, len(byProto))
	for name := range byProto {
		names = append(names, name)
	}
	sort.Strings(names)
	var checkMallocs, checked float64
	for _, name := range names {
		proto, idx := registry[name], byProto[name]
		subs := make([]core.Scenario, len(idx))
		for j, i := range idx {
			subs[j] = buildSub(base, sample[i], subSeed(seed, i))
		}
		results := make([]*core.RunResult, 0, len(subs))
		runAll := func(reg *metrics.Registry) {
			results = results[:0]
			for _, sub := range subs {
				sub.Metrics = reg
				if res, err := proto.Run(sub); err == nil {
					results = append(results, res)
				}
			}
		}
		pc := protoCount{Runs: len(subs)}
		runs := float64(len(subs))

		m0 := mallocs()
		runAll(nil)
		m1 := mallocs()
		opts := checkOptions(proto)
		for _, res := range results {
			probeSink = check.Evaluate(res, opts)
		}
		m2 := mallocs()
		pc.Allocs = float64(m1-m0) / runs
		checkMallocs += float64(m2 - m1)
		checked += float64(len(results))

		reg := metrics.NewRegistry()
		s0 := sig.GlobalStats()
		runAll(reg)
		s1 := sig.GlobalStats()
		var c counts
		c.addRegistry(reg)
		pc.Events, pc.Messages, pc.LedgerOps = c.Events/runs, c.Messages/runs, c.ProtocolOps/runs
		pc.MemoHits = float64(s1.MemoHits-s0.MemoHits) / runs
		pc.MemoMisses = float64(s1.MemoMisses-s0.MemoMisses) / runs
		out.protocols[name] = pc
	}
	out.checkAllocs = ratio(checkMallocs, checked)
	return out
}

// replayFuzz replays sampleN seeds drawn from the first batch's seed range,
// one span per scenariogen call. Seeds generating the traffic family are
// skipped, as the campaign skips them.
func replayFuzz(tr *tracer, start int64, ops, sampleN int, rng *rand.Rand, r *result) replayStats {
	var events, runs float64
	for i := 0; i < sampleN; i++ {
		seed := start + int64(rng.Intn(ops))
		trace := i + 1
		root := tr.begin("replay.scenario", trace, 0)
		id := tr.begin("scenariogen.generate", trace, root)
		sp := scenariogen.Generate(seed)
		tr.end(id)
		if sp.Family == scenariogen.FamTraffic {
			// Drop the skipped seed's spans: it is not an operation.
			tr.spans = tr.spans[:root-1]
			continue
		}
		sp.Crypto = "hmac"
		id = tr.begin("scenariogen.run", trace, root)
		o := scenariogen.Run(sp)
		tr.end(id)
		tr.end(root)
		if !o.OK() {
			r.fail(fmt.Sprintf("replay of fuzz seed %d: %v", seed, o.Violations))
		}
		events += float64(o.Events)
		runs++
	}
	return replayStats{spans: tr.byName(), protocols: map[string]protoCount{}, eventsPerRun: ratio(events, runs)}
}

// printTraced writes the human-readable per-layer report.
func printTraced(log io.Writer, w workload, seed int64, L layers, rep replayStats, pr probes, r *result) {
	fmt.Fprintf(log, "%s seed=%d traced: %d attempted, %d failed\n", w.Name, seed, r.Attempted, r.Failed)
	for _, m := range perLayer {
		fmt.Fprintf(log, "  %-42s %14.4f %-5s (%s is better)\n", m.Name, L[m.Name], m.Unit, m.Better)
	}
	if !w.Fuzz {
		// Where one payment's CPU goes: the replayed spans, of which the
		// leaves are an estimate, plus what is left for the traffic engine.
		var lv leaves
		var runs float64
		for _, pc := range rep.protocols {
			l := pc.leafUs(pr)
			k := float64(pc.Runs)
			lv.Sim += k * l.Sim
			lv.Netsim += k * l.Netsim
			lv.Sig += k * l.Sig
			lv.Ledger += k * l.Ledger
			runs += k
		}
		cpu := L["runtime.cpu_us_per_payment"]
		var protoRun float64
		for name, st := range rep.spans {
			if strings.HasSuffix(name, ".run") {
				protoRun += float64(st.Total.Nanoseconds()) / 1e3
			}
		}
		protoRun = ratio(protoRun, float64(rep.spans["replay.payment"].Count))
		fmt.Fprintf(log, "  attribution of %.1f us CPU per payment (mean over the replayed sample):\n", cpu)
		row := func(name string, us float64) {
			fmt.Fprintf(log, "    %-34s %9.2f us %5.1f%%\n", name, us, 100*ratio(us, cpu))
		}
		row("core.scenario", rep.spans["core.scenario"].MeanUs())
		row("protocol run spans", protoRun)
		row("  of which sim (estimate)", ratio(lv.Sim, runs))
		row("  of which netsim (estimate)", ratio(lv.Netsim, runs))
		row("  of which sig (estimate)", ratio(lv.Sig, runs))
		row("  of which ledger (estimate)", ratio(lv.Ledger, runs))
		row("  of which protocol self", protoRun-ratio(lv.total(), runs))
		row("check.evaluate", rep.spans["check.evaluate"].MeanUs())
		row("span recording (replay.payment self)", rep.spans["replay.payment"].SelfMeanUs())
		row("GC and runtime beside the replay", rep.cpuUs-rep.spans["replay.payment"].MeanUs())
		row("traffic.self (remainder)", cpu-rep.cpuUs)
		row("  of which traffic ledger (estimate)", L["ledger.traffic_locks_created_per_payment"]*pr.LockCycleNs/1e3)
	}
	for _, f := range r.failures {
		fmt.Fprintf(log, "  FAILED %s\n", f)
	}
}
