package main

import (
	"encoding/json"
	"strings"
)

// The catalogue below is the single source of the benchmark's names: the
// harness emits exactly these metrics, BENCHMARK.json is generated from it
// (-write) and TestCatalogueMatchesBenchmarkJSON fails when the two drift.

// runSeconds is how long one driver run measures (BENCHMARK.json
// run_seconds). Batch sizes in workloads.go are frozen against it: ~20
// batches of ~0.45 s fit one run on the 2-core reference container.
const runSeconds = 10

// metricDef describes one emitted metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics carry none.
	Bound float64
	// Exact marks a simulated-time or work-count statistic: a pure function
	// of (workload, seed), so two builds of the same model must agree to the
	// last digit (-selfcheck enforces equality).
	Exact bool
	// Doc is the one-line meaning printed by -list and in the README.
	Doc string
}

// endToEnd lists the metrics a user of the simulator sees, reported with
// --trace 0 as the median over the run's timed batches. "payment" reads
// "scenario" on fuzz_single. failed_share is not here: the result line's
// failed/attempted counts carry it (the contract wants metrics that are
// never 0, and a clean run fails nothing).
var endToEnd = []metricDef{
	{Name: "host_us_per_payment", Unit: "us", Better: "lower", Bound: 0.25,
		Doc: "wall µs of RunWith/Fuzz ÷ operations, at reference host speed (host time; see calibrate.go)"},
	{Name: "allocs_per_payment", Unit: "count", Better: "lower", Bound: 0.04,
		Doc: "runtime.MemStats.Mallocs delta ÷ operations"},
	{Name: "bytes_per_payment", Unit: "B", Better: "lower", Bound: 0.04,
		Doc: "runtime.MemStats.TotalAlloc delta ÷ operations"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10,
		Doc: "peak resident set of the process during one batch (VmHWM, reset before each batch)"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "build inputs + one warm-up batch from a cold key cache, at reference host speed; median of 5 set-ups"},
}

// perLayer lists the traced run's metrics (--trace 1), layer = module. A
// value of 0 on a run-time or count metric means the workload does not
// exercise that layer (htlc.* on open_hmac, traffic.* on fuzz_single).
var perLayer = []metricDef{
	{Name: "traffic.self_us_per_payment", Unit: "us", Better: "lower",
		Doc: "process CPU per payment of the run minus process CPU per payment of the replayed core+protocol+check calls: generator, pipeline, timeline, aggregate"},
	{Name: "traffic.timeline_events_per_payment", Unit: "count", Better: "lower", Exact: true,
		Doc: "admission-timeline events ÷ payments"},
	{Name: "traffic.parallel_speedup", Unit: "ratio", Better: "higher",
		Doc: "host time at Workers 1/Shards 1 ÷ host time at Workers 0/Shards 0, same input"},

	{Name: "core.scenario_us", Unit: "us", Better: "lower",
		Doc: "span: topology + PaymentSpec + Scenario literal (+ adversary.Spec on faulted shapes)"},
	{Name: "core.customer_id_ns", Unit: "ns", Better: "lower",
		Doc: "probe: one core.CustomerID call"},

	{Name: "timelock.run_us", Unit: "us", Better: "lower", Doc: "span: timelock Protocol.Run"},
	{Name: "timelock.run_allocs", Unit: "count", Better: "lower", Doc: "mallocs per timelock Protocol.Run"},
	{Name: "timelock.self_us", Unit: "us", Better: "lower",
		Doc: "timelock.run_us minus leaf estimates (sim, netsim, sig, ledger): world set-up + process logic"},
	{Name: "htlc.run_us", Unit: "us", Better: "lower", Doc: "span: htlc Protocol.Run"},
	{Name: "htlc.self_us", Unit: "us", Better: "lower", Doc: "htlc.run_us minus leaf estimates"},
	{Name: "weaklive.run_us", Unit: "us", Better: "lower", Doc: "span: weaklive (trusted manager) Protocol.Run"},
	{Name: "weaklive.self_us", Unit: "us", Better: "lower", Doc: "weaklive.run_us minus leaf estimates"},
	{Name: "weaklive.committee_run_us", Unit: "us", Better: "lower",
		Doc: "span: weaklive-committee Protocol.Run (covers notary)"},

	{Name: "sim.engine_new_us", Unit: "us", Better: "lower", Doc: "probe: sim.NewEngine"},
	{Name: "sim.event_ns", Unit: "ns", Better: "lower", Doc: "probe: ScheduleArgIn + fire, per event"},
	{Name: "sim.events_per_payment", Unit: "count", Better: "lower", Exact: true,
		Doc: "xchain_sim_events_fired_total ÷ payments (all engines of the run)"},

	{Name: "netsim.send_deliver_ns", Unit: "ns", Better: "lower",
		Doc: "probe: Network.Send to Deliver, per message (includes its sim event)"},
	{Name: "netsim.messages_per_payment", Unit: "count", Better: "lower", Exact: true,
		Doc: "xchain_net_messages_sent_total ÷ payments"},

	{Name: "sig.keyring_new_us", Unit: "us", Better: "lower",
		Doc: "probe: sig.NewKeyringWith for the workload's chain length, warm key cache"},
	{Name: "sig.sign_us", Unit: "us", Better: "lower", Doc: "probe: Keyring.Sign"},
	{Name: "sig.verify_us", Unit: "us", Better: "lower", Doc: "probe: Keyring.Verify, memo miss"},
	{Name: "sig.verify_memo_hit_ns", Unit: "ns", Better: "lower", Doc: "probe: Keyring.Verify, memo hit"},
	{Name: "sig.verifies_per_payment", Unit: "count", Better: "lower", Exact: true,
		Doc: "(memo hits + misses) ÷ payments"},
	{Name: "sig.verify_memo_hit_ratio", Unit: "ratio", Better: "higher", Exact: true,
		Doc: "memo hits ÷ verifications"},
	{Name: "sig.keygen_cache_hit_ratio", Unit: "ratio", Better: "higher", Exact: true,
		Doc: "key-cache hits ÷ key derivations"},

	{Name: "ledger.lock_cycle_ns", Unit: "ns", Better: "lower",
		Doc: "probe: CreateLock + Release on a compact ledger"},
	{Name: "ledger.protocol_ops_per_payment", Unit: "count", Better: "lower", Exact: true,
		Doc: "xchain_ledger_ops_total{book=protocol} ÷ payments"},
	{Name: "ledger.traffic_locks_created_per_payment", Unit: "count", Better: "lower", Exact: true,
		Doc: "xchain_ledger_locks_created_total{book=traffic} ÷ payments"},
	{Name: "ledger.traffic_refund_ratio", Unit: "ratio", Better: "lower", Exact: true,
		Doc: "traffic-book refunds ÷ locks created: wasted admission work"},

	{Name: "check.evaluate_us", Unit: "us", Better: "lower", Doc: "span: check.Evaluate + SafetyFailures"},
	{Name: "check.evaluate_allocs", Unit: "count", Better: "lower", Doc: "mallocs per check.Evaluate"},

	{Name: "scenariogen.generate_us", Unit: "us", Better: "lower", Doc: "span: scenariogen.Generate"},
	{Name: "scenariogen.run_us", Unit: "us", Better: "lower", Doc: "span: scenariogen.Run"},

	{Name: "stats.hist_add_ns", Unit: "ns", Better: "lower", Doc: "probe: stats.Histogram.Add"},

	{Name: "metrics.registry_overhead_ratio", Unit: "ratio", Better: "lower",
		Doc: "host time with a live metrics.Registry ÷ muted, same input"},

	{Name: "runtime.gc_cpu_fraction", Unit: "ratio", Better: "lower",
		Doc: "/cpu/classes/gc/total ÷ /cpu/classes/total over the muted batches"},
	{Name: "runtime.gc_cycles_per_kpayment", Unit: "count", Better: "lower",
		Doc: "GC cycles per 1000 operations over the muted batches"},
	{Name: "runtime.cpu_us_per_payment", Unit: "us", Better: "lower",
		Doc: "process CPU (user+sys) ÷ operations over the muted batches"},

	{Name: "model.success_rate", Unit: "ratio", Better: "higher", Exact: true,
		Doc: "simulated: succeeded ÷ payments (fuzz_single: conforming ÷ runs)"},
	{Name: "model.dropped_share", Unit: "ratio", Better: "lower", Exact: true,
		Doc: "simulated: dropped ÷ payments (fuzz_single: skipped ÷ seeds)"},
	{Name: "model.latency_p50_ms", Unit: "ms", Better: "lower", Exact: true,
		Doc: "simulated-time latency median of settled payments"},
	{Name: "model.latency_p99_ms", Unit: "ms", Better: "lower", Exact: true,
		Doc: "simulated-time latency p99 of settled payments"},
	{Name: "model.sub_events_per_payment", Unit: "count", Better: "lower", Exact: true,
		Doc: "simulated: protocol-run events ÷ payments"},
	{Name: "model.theorem2_count", Unit: "count", Better: "higher", Exact: true,
		Doc: "fuzz_single: Theorem-2 rediscoveries in the first batch"},

	{Name: "harness.trace_overhead_ratio", Unit: "ratio", Better: "lower",
		Doc: "host time of the counted pass (registry + KeepPayments; fuzz_single: span-recording replay) ÷ muted"},
	{Name: "harness.rep_spread", Unit: "ratio", Better: "lower",
		Doc: "(max − min) ÷ median host time of the muted batches"},
}

// benchmarkJSON renders the catalogue as the repository's BENCHMARK.json.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc) // plain strings and numbers cannot fail to encode
	return []byte(b.String())
}
