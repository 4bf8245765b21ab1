// Command xchain-traffic generates a concurrent multi-payment workload and
// executes it against one shared Fig. 1 escrow chain, printing success
// rate, throughput, latency percentiles and the liquidity-ledger audit.
//
// Usage: xchain-traffic [flags]; -h lists them, each with its default. The
// flag definitions in run are the one list. -fault and -mix strings are
// validated before anything runs (exit 2 on an unknown behaviour,
// participant or protocol).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	xchainpay "repro"
	"repro/internal/adversary"
	"repro/internal/metrics"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// startProfiles starts a CPU profile into cpuPath and arranges an allocation
// profile into memPath (either may be empty); the returned stop finishes
// both. Profiling lives here in the CLI: internal/traffic reads no clock and
// no runtime state.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var first error
		if cpu != nil {
			pprof.StopCPUProfile()
			first = cpu.Close()
		}
		if memPath != "" {
			mem, err := os.Create(memPath)
			if err != nil {
				return errors.Join(first, err)
			}
			runtime.GC() // fold the run's last allocations into the profile
			first = errors.Join(first, pprof.Lookup("allocs").WriteTo(mem, 0), mem.Close())
		}
		return first
	}, nil
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("xchain-traffic", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n           = fs.Int("n", traffic.DefaultEscrows, "number of escrows in the chain")
		seed        = fs.Int64("seed", traffic.DefaultSeed, "RNG seed")
		payments    = fs.Int("payments", traffic.DefaultPayments, "number of payments")
		arrival     = fs.String("arrival", "poisson", "arrival process: poisson, uniform, burst")
		rate        = fs.Float64("rate", traffic.DefaultRate, "mean arrival rate (payments per simulated second)")
		burst       = fs.Int("burst", traffic.DefaultBurstSize, "burst size for -arrival burst")
		burstGap    = fs.Duration("burst-gap", time.Duration(traffic.DefaultBurstGap)*time.Microsecond, "gap between bursts for -arrival burst")
		amount      = fs.Int64("amount", traffic.DefaultAmount, "central payment size")
		amountDist  = fs.String("amount-dist", "fixed", "amount distribution: fixed, uniform, exponential")
		spread      = fs.Int64("spread", 0, "half-width of the uniform amount distribution")
		commission  = fs.Int64("commission", traffic.DefaultCommission, "per-hop connector commission")
		mix         = fs.String("mix", traffic.DefaultMix, "comma-separated protocol=weight pairs")
		subpaths    = fs.Bool("subpaths", false, "route payments between random customer pairs")
		hotspot     = fs.Int("hotspot", 0, "hot sender index (with -subpaths)")
		hotspotFrac = fs.Float64("hotspot-frac", 0, "fraction of payments from the hot sender")
		liquidity   = fs.Int64("liquidity", 0, "per-account escrow endowment (0 = auto-sized)")
		queue       = fs.Duration("queue", 0, "admission-queue patience for blocked payments")
		maxQueue    = fs.Int("max-queue", 0, "queued-payment cap (0 = unbounded)")
		faults      = fs.String("fault", "", "comma-separated participant=behaviour pairs, e.g. c1=silent")
		faultFrac   = fs.Float64("faults", 0, "fraction of connectors turned Byzantine mid-run (0 = no fault plan)")
		faultBehav  = fs.String("fault-behaviours", "", "comma-separated behaviours the fault plan draws from (empty = default set)")
		faultFrom   = fs.Duration("fault-from", 0, "earliest fault onset (simulated time)")
		faultStag   = fs.Duration("fault-stagger", 0, "per-connector random onset jitter after -fault-from")
		faultOutage = fs.Duration("fault-outage", 0, "per-connector outage window; 0 = faulty for the rest of the run")
		mgrOutage   = fs.Duration("manager-outage", 0, "weak-liveness manager outage window starting at -fault-from")
		workers     = fs.Int("workers", 0, "worker-pool size (0 = one per CPU)")
		stream      = fs.Bool("stream", false, "aggregate-only retention: drop per-payment records as they settle (flat memory, histogram percentiles)")
		exemplars   = fs.Int("exemplars", 10, "payments kept as a reservoir sample with -stream")
		ckptPath    = fs.String("checkpoint", "", "write a crash-safe checkpoint to this file (resume with -resume)")
		ckptEvery   = fs.Int("checkpoint-every", 0, "write the checkpoint every N admitted payments (requires -checkpoint)")
		resumePath  = fs.String("resume", "", "resume an interrupted run from this checkpoint file")
		sweepSeeds  = fs.Int("sweep-seeds", 0, "additionally sweep this many seeds in parallel")
		crypto      = fs.String("crypto", "", "signature backend: ed25519 (default), hmac")
		cryptoStats = fs.Bool("crypto-stats", false, "print key-cache and issuance-record counters after the run")
		maxMiss     = fs.Float64("max-verify-miss", 0, "fail if the share of verifications the issuance records cannot answer exceeds this fraction (0 = no gate)")
		progress    = fs.Duration("progress", 0, "print a live progress line to stderr at this wall-clock interval (0 = off)")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile  = fs.String("memprofile", "", "write an allocation profile to this file when the run ends")
		verbose     = fs.Bool("v", false, "print one line per payment (the exemplars with -stream)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *n < 1 {
		fmt.Fprintf(stderr, "xchain-traffic: -n: need at least one escrow, got %d\n", *n)
		return 2
	}
	if *cpuProfile != "" || *memProfile != "" {
		stop, err := startProfiles(*cpuProfile, *memProfile)
		if err != nil {
			fmt.Fprintf(stderr, "xchain-traffic: cannot start profile: %v\n", err)
			return 1
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintf(stderr, "xchain-traffic: cannot write profile: %v\n", err)
				code = max(code, 1)
			}
		}()
	}

	s := xchainpay.NewScenario(*n, *seed)
	assignment, err := adversary.ParseAssignment(*faults, s.Topology)
	if err != nil {
		fmt.Fprintf(stderr, "xchain-traffic: -fault: %v\n", err)
		return 2
	}
	s = assignment.Apply(s)

	w := xchainpay.NewWorkload(*payments)
	// The kind names are the flag strings; unknown values are rejected by
	// Workload.Validate rather than silently coerced.
	w.Arrival.Kind = xchainpay.ArrivalKind(*arrival)
	w.Arrival.Rate = *rate
	w.Arrival.BurstSize = *burst
	w.Arrival.BurstGap = durToSim(*burstGap)
	w.Amounts.Kind = xchainpay.AmountKind(*amountDist)
	w.Amounts.Base = *amount
	w.Amounts.Spread = *spread
	w.Commission = *commission
	w.RandomSubPaths = *subpaths
	w.HotspotSender = *hotspot
	w.HotspotFraction = *hotspotFrac
	w.Liquidity = *liquidity
	w.QueuePatience = durToSim(*queue)
	w.MaxQueue = *maxQueue
	if *faultFrac > 0 || *mgrOutage > 0 {
		w.Faults = xchainpay.TrafficFaultPlan{
			Fraction:      *faultFrac,
			From:          durToSim(*faultFrom),
			Stagger:       durToSim(*faultStag),
			Outage:        durToSim(*faultOutage),
			ManagerOutage: durToSim(*mgrOutage),
		}
		if *faultBehav != "" {
			w.Faults.Behaviours = strings.Split(*faultBehav, ",")
		}
	}
	if *mix != "" {
		if w.Mix, err = traffic.ParseMix(*mix); err != nil {
			fmt.Fprintf(stderr, "xchain-traffic: -mix: %v\n", err)
			return 2
		}
	}

	cfg := xchainpay.TrafficConfig{Workers: *workers, Stream: *stream, Exemplars: *exemplars, Crypto: *crypto}
	if *ckptPath != "" || *ckptEvery > 0 || *resumePath != "" {
		if *sweepSeeds > 1 {
			fmt.Fprintf(stderr, "xchain-traffic: -checkpoint/-resume cannot be combined with -sweep-seeds\n")
			return 2
		}
		cfg.CheckpointPath = *ckptPath
		cfg.CheckpointEvery = *ckptEvery
		if *resumePath != "" {
			// Resuming with periodic checkpoints but no explicit -checkpoint
			// keeps writing to the file being resumed from.
			if cfg.CheckpointPath == "" && cfg.CheckpointEvery > 0 {
				cfg.CheckpointPath = *resumePath
			}
			sn, err := xchainpay.LoadTrafficSnapshot(*resumePath)
			if err != nil {
				fmt.Fprintf(stderr, "xchain-traffic: cannot resume from %s: %v\n", *resumePath, err)
				return 1
			}
			cfg.Resume = sn
		}
	}
	var stopProgress func()
	if *progress > 0 {
		reg := metrics.NewRegistry()
		cfg.Metrics = reg
		stopProgress = startProgress(stderr, reg, *progress)
		// Error paths return without reaching cryptoGate; make sure the
		// progress goroutine never outlives the run (stop is idempotent).
		defer stopProgress()
	}
	// cryptoGate prints the process-wide sig counters under their
	// canonical metric names (the same the /metrics exposition uses, see
	// internal/sig RegisterMetrics) and applies the verification miss-rate
	// gate: the share of verifications the keyrings' issuance records could
	// not answer, which only forged or foreign signatures should make. It
	// covers single runs and sweeps alike (the counters aggregate every run
	// of the process).
	cryptoGate := func() int {
		if stopProgress != nil {
			stopProgress()
		}
		if !*cryptoStats && *maxMiss <= 0 {
			return 0
		}
		st := sig.GlobalStats()
		fmt.Fprintf(stdout, "crypto: %s=%d %s=%d %s=%d %s=%d %s=%d %s=%d (verify miss rate %.3f)\n",
			sig.MetricKeygenCacheHits, st.KeygenHits,
			sig.MetricKeygenCacheMisses, st.KeygenMisses,
			sig.MetricVerifyMemoHits, st.MemoHits,
			sig.MetricVerifyMemoMisses, st.MemoMisses,
			sig.MetricVerifyMemoEvictions, st.MemoEvictions,
			sig.MetricRendered, st.Rendered,
			st.VerifyMissRate())
		if *maxMiss > 0 && st.VerifyMissRate() > *maxMiss {
			fmt.Fprintf(stderr, "xchain-traffic: verification miss rate %.3f exceeds gate %.3f\n", st.VerifyMissRate(), *maxMiss)
			return 1
		}
		return 0
	}
	if *sweepSeeds > 1 {
		seeds := make([]int64, *sweepSeeds)
		for i := range seeds {
			seeds[i] = *seed + int64(i)
		}
		points := xchainpay.SeedSweepTraffic(s, w, seeds)
		for _, o := range xchainpay.SweepTraffic(points, cfg) {
			if o.Err != nil {
				fmt.Fprintf(stderr, "xchain-traffic: %s: %v\n", o.Point.Label, o.Err)
				return 1
			}
			fmt.Fprintf(stdout, "=== %s ===\n%s", o.Point.Label, o.Result)
			if bad := gate(stderr, o.Result); bad != 0 {
				return bad
			}
		}
		return cryptoGate()
	}

	res, err := xchainpay.RunTrafficWith(s, w, cfg)
	if err != nil {
		var mm *xchainpay.TrafficConfigMismatchError
		if errors.As(err, &mm) {
			fmt.Fprintf(stderr, "xchain-traffic: %v\n", err)
			fmt.Fprintf(stderr, "xchain-traffic: the -resume snapshot was taken under a different scenario/workload than the current flags rebuild; rerun with the original flags. The snapshot's embedded config:\n%s\n", mm.EmbeddedConfig())
			return 1
		}
		fmt.Fprintf(stderr, "xchain-traffic: %v\n", err)
		return 1
	}
	if *verbose {
		fmt.Fprint(stdout, res.PaymentTable())
	}
	fmt.Fprint(stdout, res.String())
	if bad := gate(stderr, res); bad != 0 {
		return bad
	}
	return cryptoGate()
}

// gate enforces the aggregate oracles on a finished run: the ledger audit
// and refund-cascade conservation, plus the Theorem-1/3 safety oracle (zero
// owed safety-property failures at any load and any attacker fraction).
func gate(stderr io.Writer, res *xchainpay.TrafficResult) int {
	if res.AuditErr != nil || res.CascadeErr != nil || res.PendingLocks != 0 {
		fmt.Fprintf(stderr, "xchain-traffic: liquidity ledgers inconsistent after the run\n")
		return 1
	}
	if res.SafetyViolations != 0 {
		fmt.Fprintf(stderr, "xchain-traffic: %d safety violations for honest parties (the theorems forbid any)\n", res.SafetyViolations)
		return 1
	}
	return 0
}

func durToSim(d time.Duration) sim.Time { return sim.Time(d / time.Microsecond) }

// startProgress launches a goroutine printing one progress line to w
// immediately and then every interval, reading the run's live registry and
// the Go heap. The returned stop function is idempotent: it prints a final
// line and waits for the goroutine to exit, so no write races the caller's
// own output.
func startProgress(w io.Writer, reg *metrics.Registry, every time.Duration) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		var lastSettled uint64
		lastAt := time.Now()
		line := func() {
			settled := reg.Counter(traffic.MetricPaymentsSettled, "").Value()
			now := time.Now()
			rate := 0.0
			if dt := now.Sub(lastAt).Seconds(); dt > 0 {
				rate = float64(settled-lastSettled) / dt
			}
			lastSettled, lastAt = settled, now
			lat := reg.Histogram(traffic.MetricLatencyMs, "")
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			fmt.Fprintf(w, "progress: generated=%d simulated=%d settled=%d (%.0f/s wall) queue=%.0f in-flight=%.0f p50=%.3fms p99=%.3fms heap=%.1fMB\n",
				reg.Counter(traffic.MetricPaymentsGenerated, "").Value(),
				reg.Counter(traffic.MetricPaymentsSimulated, "").Value(),
				settled, rate,
				reg.Gauge(traffic.MetricQueueDepth, "").Value(),
				reg.Gauge(traffic.MetricInFlight, "").Value(),
				lat.Quantile(0.5), lat.Quantile(0.99),
				float64(ms.HeapAlloc)/(1<<20))
		}
		line()
		for {
			select {
			case <-stop:
				line()
				return
			case <-t.C:
				line()
			}
		}
	}()
	var once bool
	return func() {
		if once {
			return
		}
		once = true
		close(stop)
		<-done
	}
}
