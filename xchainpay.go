// Package xchainpay is the public facade of this reproduction of
// "Feasibility of Cross-Chain Payment with Success Guarantees" (van
// Glabbeek, Gramoli, Tholoniat; SPAA 2020).
//
// It exposes, behind a small API, everything a user needs to set up a
// cross-chain payment scenario on the Fig. 1 topology (Alice, connectors,
// Bob, and one escrow per adjacent pair), pick a protocol and a network
// timing model, execute the payment deterministically on the built-in
// discrete-event simulator, and check the outcome against the correctness
// properties of the paper's Definitions 1 and 2:
//
//	s := xchainpay.NewScenario(3, 42) // 3 escrows, RNG seed 42
//	res, err := xchainpay.TimeBounded().Run(s)
//	report := xchainpay.CheckTimeBounded(res, xchainpay.TimeBounded().ParamsFor(s).Bound)
//	fmt.Print(report)
//
// Four protocol families are provided:
//
//   - TimeBounded / TimeBoundedANTA / TimeBoundedNaive — the paper's primary
//     contribution (Theorem 1, Figure 2): the Interledger universal protocol
//     fine-tuned for clock drift, as plain processes or as the Figure-2
//     timed automata, plus the drift-unaware ablation.
//   - WeakLiveness / WeakLivenessCommittee — the Theorem-3 protocol with an
//     external transaction manager (a single trusted party or a BFT notary
//     committee) that tolerates partial synchrony.
//   - HTLCBaseline — the hashed-timelock chain the related work relies on.
//   - The cross-chain deal protocols of Herlihy et al. live in
//     internal/deals and are reached through the experiment harness (E6).
//
// Beyond single payments, the traffic subsystem multiplexes many concurrent
// payments over one shared escrow chain with bounded liquidity:
//
//	w := xchainpay.NewWorkload(1000)           // 1000 payments, Poisson arrivals
//	tr, err := xchainpay.RunTraffic(s, w)      // deterministic in (s.Seed, w)
//	fmt.Print(tr)                              // success rate, throughput, latency
//
// Every traffic run executes as one bounded pipeline; million-payment
// workloads set TrafficConfig.Stream (aggregate-only retention), which makes
// peak memory independent of the payment count. See internal/traffic,
// experiment E9, cmd/xchain-traffic and examples/traffic.
//
// The experiment harness regenerating every artefact of the paper is in
// internal/bench and is exposed through cmd/xchain-bench and the root-level
// benchmarks in bench_test.go.
package xchainpay

import (
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/htlc"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/scenariogen"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timelock"
	"repro/internal/traffic"
	"repro/internal/weaklive"
)

// Re-exported model types. The underlying definitions live in internal/core;
// the aliases make the public API self-contained for downstream users.
type (
	// Scenario fully describes one protocol run: topology, payment, timing
	// assumptions, network model, faults, patience and seed.
	Scenario = core.Scenario
	// Topology is the Fig. 1 chain of customers and escrows.
	Topology = core.Topology
	// PaymentSpec fixes the agreed per-hop amounts.
	PaymentSpec = core.PaymentSpec
	// Timing bundles the synchrony parameters protocols are configured with.
	Timing = core.Timing
	// FaultSpec describes how a Byzantine participant deviates.
	FaultSpec = core.FaultSpec
	// Protocol is the common interface of all payment protocols.
	Protocol = core.Protocol
	// RunResult is the full record of one protocol execution.
	RunResult = core.RunResult
	// CustomerOutcome is one customer's view of the outcome.
	CustomerOutcome = core.CustomerOutcome
	// Property identifies one correctness property of Definitions 1 and 2.
	Property = core.Property
	// Report carries one verdict per property for a run.
	Report = check.Report
	// Time is simulated time in microseconds.
	Time = sim.Time
	// Workload describes a population of concurrent payments offered to one
	// escrow chain (arrival process, sizes, hotspots, protocol mix).
	Workload = traffic.Workload
	// TrafficResult aggregates a multi-payment traffic run: success rate,
	// throughput, latency percentiles and the audited liquidity ledgers.
	TrafficResult = traffic.Result
	// TrafficPayment records one payment's fate in a traffic run.
	TrafficPayment = traffic.PaymentResult
	// TrafficConfig tunes a traffic run (worker-pool size, whether
	// per-payment records are kept or only aggregates, crypto backend,
	// metrics, checkpointing) without affecting aggregate results.
	TrafficConfig = traffic.Config
	// TrafficPoint is one cell of a traffic parameter sweep.
	TrafficPoint = traffic.Point
	// TrafficOutcome pairs a sweep cell with its result.
	TrafficOutcome = traffic.Outcome
	// Arrival describes when a workload's payments enter the system.
	Arrival = traffic.Arrival
	// ArrivalKind selects a workload's arrival process.
	ArrivalKind = traffic.ArrivalKind
	// AmountDist describes how large a workload's payments are.
	AmountDist = traffic.AmountDist
	// AmountKind selects a workload's payment-size distribution.
	AmountKind = traffic.AmountKind
	// ProtocolShare weights one protocol within a mixed workload.
	ProtocolShare = traffic.ProtocolShare
	// TrafficFaultPlan is a deterministic, seed-derived schedule turning a
	// fraction of a traffic run's connectors Byzantine mid-run, with optional
	// recovery windows and a weak-liveness manager outage. Attach it via
	// Workload.Faults; the zero value keeps every connector honest.
	TrafficFaultPlan = traffic.FaultPlan
	// TrafficDropCause attributes a queue-expiry drop to the attacker
	// (faulted path) or to plain capacity starvation.
	TrafficDropCause = traffic.DropCause
	// TrafficSnapshot is a restartable mid-run checkpoint of a traffic run:
	// admission position, in-flight payments, ledger books, aggregate state.
	// Produce one via TrafficConfig.CheckpointEvery/CheckpointPath, reload it
	// with LoadTrafficSnapshot, and resume via TrafficConfig.Resume.
	TrafficSnapshot = traffic.RunSnapshot
	// TrafficControl requests cooperative interruption of a traffic run;
	// the run stops at the next payment boundary (writing a final
	// checkpoint if configured) and returns ErrTrafficInterrupted.
	TrafficControl = traffic.Control
	// TrafficConfigMismatchError reports a resume attempt whose scenario or
	// workload differs from the one the snapshot was taken under.
	TrafficConfigMismatchError = traffic.ConfigMismatchError
	// Histogram is the streaming log-bucketed histogram used by traffic
	// runs that drop per-payment records: exact mean/min/max/sum, and
	// percentile estimates within 1% relative error in constant memory.
	Histogram = stats.Histogram
	// ScenarioSpec is a fully serialisable random scenario produced by the
	// property-based fuzzer: protocol family, chain, amounts, timing,
	// schedule (within or violating the synchrony envelope), faults and
	// patience, reconstructible byte-identically from JSON.
	ScenarioSpec = scenariogen.Spec
	// ScenarioOutcome is the fuzzer oracle's evaluation of one generated
	// scenario: owed-property violations (bugs) versus expected
	// theorem-shaped failures.
	ScenarioOutcome = scenariogen.Outcome
	// FuzzOptions configures a fuzzing campaign over consecutive seeds.
	FuzzOptions = scenariogen.Options
	// FuzzStats aggregates a fuzzing campaign.
	FuzzStats = scenariogen.Stats
	// ScenarioReplay is a saved counterexample: a spec plus the outcome it
	// must reproduce deterministically.
	ScenarioReplay = scenariogen.Replay
	// MetricsRegistry is a concurrency-safe registry of counters, gauges
	// and log-bucketed histograms with Prometheus text exposition
	// (WriteProm). Attach one via Scenario.Metrics or
	// TrafficConfig.Metrics to observe a run live; instrumentation is
	// observation-only and never changes a result (see internal/metrics).
	MetricsRegistry = metrics.Registry
	// MetricFamily is one metric family of a registry snapshot.
	MetricFamily = metrics.Family
)

// Workload arrival processes and amount distributions, re-exported.
const (
	ArrivalPoisson    = traffic.ArrivalPoisson
	ArrivalUniform    = traffic.ArrivalUniform
	ArrivalBurst      = traffic.ArrivalBurst
	AmountFixed       = traffic.AmountFixed
	AmountUniform     = traffic.AmountUniform
	AmountExponential = traffic.AmountExponential
)

// Drop causes recorded on dropped traffic payments, re-exported.
const (
	DropCapacity    = traffic.CauseCapacity
	DropFaultedPath = traffic.CauseFaultedPath
)

// DefaultTrafficFaultBehaviours returns the adversary behaviours a
// TrafficFaultPlan draws from when none are configured.
func DefaultTrafficFaultBehaviours() []string { return traffic.DefaultFaultBehaviours() }

// ErrTrafficInterrupted is returned by RunTrafficWith when a run stops early
// because its TrafficControl was tripped or TrafficConfig.InterruptAt was
// reached; the final checkpoint (if configured) has been written.
var ErrTrafficInterrupted = traffic.ErrInterrupted

// LoadTrafficSnapshot reads and validates a traffic checkpoint file written
// by a run configured with TrafficConfig.CheckpointPath. Corrupt, truncated
// or wrong-version files are rejected, never half-loaded.
func LoadTrafficSnapshot(path string) (*TrafficSnapshot, error) {
	return traffic.LoadSnapshot(path)
}

// Time units, re-exported for scenario construction.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
)

// Signature backend names, re-exported for Scenario.Crypto /
// TrafficConfig.Crypto. Authentication is a model assumption of the paper,
// so the backend never changes a verdict — only how much CPU each run spends
// on it (ed25519 = real asymmetric signatures, hmac = derived-key SHA-256
// MACs, ~100x cheaper; see internal/sig).
const (
	CryptoEd25519 = sig.BackendEd25519
	CryptoHMAC    = sig.BackendHMAC
)

// SigStats carries the authentication-layer cache counters (process-wide
// key cache and per-keyring verification memo).
type SigStats = sig.Stats

// CryptoBackends lists the available signature backend names.
func CryptoBackends() []string { return sig.BackendNames() }

// CryptoStats returns the process-wide authentication cache counters.
func CryptoStats() SigStats { return sig.GlobalStats() }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewLabeledMetricsRegistry returns a registry whose every sample carries
// the given base label pairs (e.g. "run", "run-0001"), so multiple
// registries can be merged into one exposition (metrics.WriteProm).
func NewLabeledMetricsRegistry(labelPairs ...string) *MetricsRegistry {
	return metrics.NewLabeledRegistry(labelPairs...)
}

// RegisterCryptoMetrics exposes the process-wide authentication cache
// counters (CryptoStats) on r under their canonical xchain_sig_* names,
// read live at scrape time. A nil registry is a no-op.
func RegisterCryptoMetrics(r *MetricsRegistry) { sig.RegisterMetrics(r) }

// NewScenario returns a ready-to-run scenario for a chain with n escrows
// (n+1 customers), a synchronous network at the default timing, a
// commissioned payment to Bob, and no faults. Adjust it with the
// With*/Set* methods of Scenario before running.
func NewScenario(n int, seed int64) Scenario { return core.NewScenario(n, seed) }

// NewTopology returns the Fig. 1 topology with n escrows.
func NewTopology(n int) Topology { return core.NewTopology(n) }

// DefaultTiming returns the timing assumptions used across the experiments.
func DefaultTiming() Timing { return core.DefaultTiming() }

// Synchronous returns the Theorem-1 network model: every message is
// delivered within the bound delta.
func Synchronous(delta Time) netsim.DelayModel {
	return netsim.Synchronous{Min: 1 * sim.Millisecond, Max: delta}
}

// PartiallySynchronous returns the Theorem-2/3 network model: messages may
// be delayed arbitrarily (up to maxPreGST) before the global stabilisation
// time gst and respect delta afterwards.
func PartiallySynchronous(gst, delta, maxPreGST Time) netsim.DelayModel {
	return netsim.PartialSynchrony{GST: gst, Delta: delta, MaxPreGST: maxPreGST}
}

// TimeBounded returns the paper's time-bounded protocol (Theorem 1, Fig. 2):
// the Interledger universal protocol fine-tuned for clock drift, executed by
// the process engine.
func TimeBounded() *timelock.Protocol { return timelock.New() }

// TimeBoundedANTA returns the same protocol executed as the Figure-2 timed
// automata on the generic ANTA interpreter.
func TimeBoundedANTA() *timelock.Protocol { return timelock.NewANTA() }

// TimeBoundedNaive returns the drift-unaware ablation (the plain Interledger
// universal protocol), used by ablation A1.
func TimeBoundedNaive() *timelock.Protocol { return timelock.NewNaive() }

// WeakLiveness returns the Theorem-3 protocol with a single trusted
// transaction manager.
func WeakLiveness() *weaklive.Protocol { return weaklive.New() }

// WeakLivenessCommittee returns the Theorem-3 protocol with a notary
// committee of the given size (3f+1 tolerates f unreliable notaries) as
// transaction manager.
func WeakLivenessCommittee(size int) *weaklive.Protocol { return weaklive.NewCommittee(size) }

// HTLCBaseline returns the hashed-timelock baseline protocol.
func HTLCBaseline() *htlc.Protocol { return htlc.New() }

// NewWorkload returns a default traffic workload of n payments: Poisson
// arrivals at 100/s, fixed size, all time-bounded protocol, auto-sized
// liquidity. Adjust its fields or use its With* methods before running.
func NewWorkload(n int) Workload { return traffic.NewWorkload(n) }

// RunTraffic executes the workload as many concurrent payments multiplexed
// over the scenario's escrow chain, with per-payment simulations fanned out
// across one worker per CPU. The result is deterministic in
// (Scenario.Seed, Workload) regardless of the worker count.
func RunTraffic(s Scenario, w Workload) (*TrafficResult, error) { return traffic.Run(s, w) }

// RunTrafficWith is RunTraffic with an explicit configuration. The run
// executes the same way whatever it says; TrafficConfig.Stream only decides
// what is retained: per-payment records are dropped as they settle (unless
// KeepPayments) and latency percentiles come from a constant-size histogram,
// so peak memory is independent of Workload.Payments, while every count,
// rate and ledger audit stays byte-identical to a run that keeps them.
func RunTrafficWith(s Scenario, w Workload, cfg TrafficConfig) (*TrafficResult, error) {
	return traffic.RunWith(s, w, cfg)
}

// NewHistogram returns an empty streaming histogram (see Histogram).
func NewHistogram() *Histogram { return stats.NewHistogram() }

// SweepTraffic runs every (scenario, workload) point across a worker pool
// and returns the outcomes in point order.
func SweepTraffic(points []TrafficPoint, cfg TrafficConfig) []TrafficOutcome {
	return traffic.Sweep(points, cfg)
}

// SeedSweepTraffic builds one sweep point per seed over the same scenario
// shape and workload.
func SeedSweepTraffic(s Scenario, w Workload, seeds []int64) []TrafficPoint {
	return traffic.SeedSweep(s, w, seeds)
}

// GridTraffic builds the cross product of chain lengths and seeds as sweep
// points; mutate, if non-nil, adjusts each scenario before it is added.
func GridTraffic(chains []int, seeds []int64, w Workload, mutate func(Scenario) Scenario) []TrafficPoint {
	return traffic.Grid(chains, seeds, w, mutate)
}

// GenerateScenario derives a random fuzzing scenario from a seed — a pure
// function of the seed, so every finding is reproducible from one number.
// About 70% of seeds satisfy the theorem preconditions (Theorem-1/3
// conforming: every owed property must hold) and the rest violate the
// synchrony envelope (where safety must survive but Theorem-2-shaped
// liveness and termination failures are the expected outcome).
func GenerateScenario(seed int64) ScenarioSpec { return scenariogen.Generate(seed) }

// RunScenarioSpec executes a generated scenario and evaluates the fuzzer's
// theorem-shaped oracle over the run's property report.
func RunScenarioSpec(sp ScenarioSpec) *ScenarioOutcome { return scenariogen.Run(sp) }

// FuzzScenarios runs a fuzzing campaign over consecutive seeds; results are
// deterministic in the options regardless of the worker count.
func FuzzScenarios(opts FuzzOptions) *FuzzStats { return scenariogen.Fuzz(opts) }

// LoadScenarioReplay reads a saved counterexample; its Verify method re-runs
// it and checks it reproduces exactly. cmd/xchain-fuzz writes these files.
func LoadScenarioReplay(path string) (ScenarioReplay, error) { return scenariogen.LoadReplay(path) }

// CheckTimeBounded evaluates a run against Definition 1 in its time-bounded
// variant: termination must happen within bound.
func CheckTimeBounded(res *RunResult, bound Time) Report {
	return check.Evaluate(res, check.Def1TimeBounded(bound))
}

// CheckEventual evaluates a run against Definition 1 with eventual (rather
// than time-bounded) termination.
func CheckEventual(res *RunResult) Report {
	return check.Evaluate(res, check.Def1Eventual())
}

// CheckWeakLiveness evaluates a run against Definition 2; patience is the
// minimum patience every customer must have for the weak-liveness property
// to be owed.
func CheckWeakLiveness(res *RunResult, patience Time) Report {
	return check.Evaluate(res, check.Def2(patience))
}
