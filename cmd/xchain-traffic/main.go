// Command xchain-traffic generates a concurrent multi-payment workload and
// executes it against one shared Fig. 1 escrow chain, printing success
// rate, throughput, latency percentiles and the liquidity-ledger audit.
//
// Usage: xchain-traffic [flags]; -h lists them, each with its default. The
// flag definitions in parse are the one list: the first group names the
// run, as a traffic.Request (the body xchain-serve's POST /runs takes), and
// the rest tune how it executes and reports. A request Build refuses exits
// 2, naming the flag at fault, before anything runs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/sig"
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

// options are the flags that tune how xchain-traffic executes and reports a
// run, beside the traffic.Request that names it.
type options struct {
	exemplars, ckptEvery                         int
	ckptPath, resumePath, cpuProfile, memProfile string
	cryptoStats, verbose                         bool
	maxMiss                                      float64
	progress                                     time.Duration
}

// parse reads args into the request they name and the CLI's own options.
// Its flag definitions are the one list of flags, and the one table from
// request keys to flags: the first group binds each field of the request
// (see flagFor).
func parse(args []string, stderr io.Writer) (*flag.FlagSet, *traffic.Request, options, error) {
	fs := flag.NewFlagSet("xchain-traffic", flag.ContinueOnError)
	fs.SetOutput(stderr)
	q := traffic.DefaultRequest()
	fs.IntVar(&q.Escrows, "n", q.Escrows, "number of escrows in the chain")
	fs.Int64Var(&q.Seed, "seed", q.Seed, "RNG seed")
	fs.IntVar(&q.Payments, "payments", q.Payments, "number of payments")
	fs.StringVar(&q.Arrival, "arrival", q.Arrival, "arrival process: poisson, uniform, burst")
	fs.Float64Var(&q.Rate, "rate", q.Rate, "mean arrival rate (payments per simulated second)")
	fs.IntVar(&q.BurstSize, "burst", q.BurstSize, "burst size for -arrival burst")
	fs.Var((*msFlag)(&q.BurstGapMs), "burst-gap", "`duration` between bursts for -arrival burst")
	fs.Int64Var(&q.Amount, "amount", q.Amount, "central payment size")
	fs.StringVar(&q.AmountDist, "amount-dist", q.AmountDist, "amount distribution: fixed, uniform, exponential")
	fs.Int64Var(&q.Spread, "spread", q.Spread, "half-width of the uniform amount distribution")
	fs.Int64Var(&q.Commission, "commission", q.Commission, "per-hop connector commission")
	fs.StringVar(&q.Mix, "mix", q.Mix, "comma-separated protocol=weight pairs")
	fs.BoolVar(&q.Subpaths, "subpaths", q.Subpaths, "route payments between random customer pairs")
	fs.IntVar(&q.Hotspot, "hotspot", q.Hotspot, "hot sender index (with -subpaths)")
	fs.Float64Var(&q.HotspotFrac, "hotspot-frac", q.HotspotFrac, "fraction of payments from the hot sender")
	fs.Int64Var(&q.Liquidity, "liquidity", q.Liquidity, "per-account escrow endowment (0 = auto-sized)")
	fs.Var((*msFlag)(&q.QueuePatienceMs), "queue", "admission-queue patience (a `duration`) for blocked payments")
	fs.IntVar(&q.MaxQueue, "max-queue", q.MaxQueue, "queued-payment cap (0 = unbounded)")
	fs.StringVar(&q.Faults, "fault", q.Faults, "comma-separated participant=behaviour pairs, e.g. c1=silent")
	fs.Float64Var(&q.FaultFraction, "faults", q.FaultFraction, "fraction of connectors turned Byzantine mid-run (0 = no fault plan)")
	fs.Var((*listFlag)(&q.FaultBehaviours), "fault-behaviours", "comma-separated `behaviours` the fault plan draws from (empty = default set)")
	fs.Var((*msFlag)(&q.FaultFromMs), "fault-from", "earliest fault onset (a simulated `duration`)")
	fs.Var((*msFlag)(&q.FaultStaggerMs), "fault-stagger", "per-connector random onset jitter (a `duration`) after -fault-from")
	fs.Var((*msFlag)(&q.FaultOutageMs), "fault-outage", "per-connector outage `duration`; 0 = faulty for the rest of the run")
	fs.Var((*msFlag)(&q.ManagerOutageMs), "manager-outage", "weak-liveness manager outage `duration` starting at -fault-from")
	fs.IntVar(&q.Workers, "workers", q.Workers, "worker-pool size (0 = one per CPU)")
	fs.BoolVar(&q.Stream, "stream", q.Stream, "aggregate-only retention: drop per-payment records as they settle (flat memory, histogram percentiles)")
	fs.StringVar(&q.Crypto, "crypto", q.Crypto, "signature backend: ed25519 (default), hmac")

	var o options
	fs.IntVar(&o.exemplars, "exemplars", 10, "payments kept as a reservoir sample with -stream")
	fs.StringVar(&o.ckptPath, "checkpoint", "", "write a crash-safe checkpoint to this file (resume with -resume)")
	fs.IntVar(&o.ckptEvery, "checkpoint-every", 0, "write the checkpoint every N admitted payments (requires -checkpoint)")
	fs.StringVar(&o.resumePath, "resume", "", "resume an interrupted run from this checkpoint file")
	fs.BoolVar(&o.cryptoStats, "crypto-stats", false, "print key-cache and issuance-record counters after the run")
	fs.Float64Var(&o.maxMiss, "max-verify-miss", 0, "fail if the share of verifications the issuance records cannot answer exceeds this fraction (0 = no gate)")
	fs.DurationVar(&o.progress, "progress", 0, "print a live progress line to stderr at this wall-clock interval (0 = off)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write an allocation profile to this file when the run ends")
	fs.BoolVar(&o.verbose, "v", false, "print one line per payment (the exemplars with -stream)")
	err := fs.Parse(args)
	return fs, &q, o, err
}

// check refuses an option no run can honour, naming its flag.
func (o options) check() error {
	switch {
	case o.exemplars < 0:
		return fmt.Errorf("-exemplars: need 0 or more, got %d", o.exemplars)
	case o.ckptEvery < 0:
		return fmt.Errorf("-checkpoint-every: need 0 or more, got %d", o.ckptEvery)
	case !(o.maxMiss >= 0 && o.maxMiss <= 1):
		return fmt.Errorf("-max-verify-miss: need a fraction from 0 to 1, got %v", o.maxMiss)
	case o.progress < 0:
		return fmt.Errorf("-progress: need 0 or more, got %v", o.progress)
	}
	return nil
}

// msFlag is a duration flag writing a request's _ms field.
type msFlag float64

func (f *msFlag) String() string {
	return time.Duration(math.Round(float64(*f) * float64(time.Millisecond))).String()
}

func (f *msFlag) Set(s string) error {
	d, err := time.ParseDuration(s)
	*f = msFlag(float64(d) / float64(time.Millisecond))
	return err
}

// listFlag is a comma-separated list flag writing a request's list field.
type listFlag []string

func (f *listFlag) String() string { return strings.Join(*f, ",") }

func (f *listFlag) Set(s string) error {
	*f = nil
	if s != "" {
		*f = strings.Split(s, ",")
	}
	return nil
}

// flagFor names the flag of fs bound to the field of q under the JSON key.
func flagFor(fs *flag.FlagSet, q *traffic.Request, key string) (name string) {
	v := reflect.ValueOf(q).Elem()
	fs.VisitAll(func(f *flag.Flag) {
		for i := range v.NumField() {
			if v.Type().Field(i).Tag.Get("json") == key && reflect.ValueOf(f.Value).Pointer() == v.Field(i).Addr().Pointer() {
				name = f.Name
			}
		}
	})
	return name
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs, q, o, err := parse(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := o.check(); err != nil {
		fmt.Fprintf(stderr, "xchain-traffic: %v\n", err)
		return 2
	}
	s, w, cfg, err := q.Build()
	var re *traffic.RequestError // Build's only error
	if errors.As(err, &re) {
		name, msg := flagFor(fs, q, re.Key), re.Err.Error()
		// Build refuses a negative _ms value in milliseconds; a duration
		// flag's refusal names the value as a duration, as it was typed.
		if ms, ok := fs.Lookup(name).Value.(*msFlag); ok && *ms < 0 {
			msg = strings.Replace(msg, fmt.Sprint(float64(*ms)), ms.String(), 1)
		}
		fmt.Fprintf(stderr, "xchain-traffic: -%s: %s\n", name, msg)
		return 2
	}
	if o.cpuProfile != "" || o.memProfile != "" {
		stop, err := startProfiles(o.cpuProfile, o.memProfile)
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

	cfg.Exemplars = o.exemplars
	if o.ckptPath != "" || o.ckptEvery > 0 || o.resumePath != "" {
		cfg.CheckpointPath = o.ckptPath
		cfg.CheckpointEvery = o.ckptEvery
		if o.resumePath != "" {
			// Resuming with periodic checkpoints but no explicit -checkpoint
			// keeps writing to the file being resumed from.
			if cfg.CheckpointPath == "" && cfg.CheckpointEvery > 0 {
				cfg.CheckpointPath = o.resumePath
			}
			sn, err := traffic.LoadSnapshot(o.resumePath)
			if err != nil {
				fmt.Fprintf(stderr, "xchain-traffic: cannot resume from %s: %v\n", o.resumePath, err)
				return 1
			}
			cfg.Resume = sn
		}
	}
	var stopProgress func()
	if o.progress > 0 {
		reg := metrics.NewRegistry()
		cfg.Metrics = reg
		stopProgress = startProgress(stderr, reg, o.progress)
		// Error paths return before the stop below; make sure the progress
		// goroutine never outlives the run (stop is idempotent).
		defer stopProgress()
	}
	res, err := traffic.RunWith(s, w, cfg)
	if err != nil {
		var mm *traffic.ConfigMismatchError
		if errors.As(err, &mm) {
			fmt.Fprintf(stderr, "xchain-traffic: %v\n", err)
			fmt.Fprintf(stderr, "xchain-traffic: the -resume snapshot was taken under a different scenario/workload than the current flags rebuild; rerun with the original flags. The snapshot's embedded config:\n%s\n", mm.EmbeddedConfig())
			return 1
		}
		fmt.Fprintf(stderr, "xchain-traffic: %v\n", err)
		return 1
	}
	if o.verbose {
		fmt.Fprint(stdout, res.PaymentTable())
	}
	fmt.Fprint(stdout, res.String())
	if bad := gate(stderr, res); bad != 0 {
		return bad
	}
	if stopProgress != nil {
		stopProgress()
	}
	return cryptoGate(stdout, stderr, o)
}

// cryptoGate prints the process-wide sig counters under their canonical
// metric names (the same the /metrics exposition uses, see internal/sig
// RegisterMetrics) and applies the verification miss-rate gate: the share of
// verifications the keyrings' issuance records could not answer, which only
// forged or foreign signatures should make.
func cryptoGate(stdout, stderr io.Writer, o options) int {
	if !o.cryptoStats && o.maxMiss <= 0 {
		return 0
	}
	st := sig.GlobalStats()
	fmt.Fprintf(stdout, "crypto: %s=%d %s=%d %s=%d %s=%d %s=%d (verify miss rate %.3f)\n",
		sig.MetricKeygenCacheHits, st.KeygenHits,
		sig.MetricKeygenCacheMisses, st.KeygenMisses,
		sig.MetricVerifyMemoHits, st.MemoHits,
		sig.MetricVerifyMemoMisses, st.MemoMisses,
		sig.MetricRendered, st.Rendered,
		st.VerifyMissRate())
	if o.maxMiss > 0 && st.VerifyMissRate() > o.maxMiss {
		fmt.Fprintf(stderr, "xchain-traffic: verification miss rate %.3f exceeds gate %.3f\n", st.VerifyMissRate(), o.maxMiss)
		return 1
	}
	return 0
}

// gate enforces the aggregate oracles on a finished run: the ledger audit
// and refund-cascade conservation, plus the Theorem-1/3 safety oracle (zero
// owed safety-property failures at any load and any attacker fraction).
func gate(stderr io.Writer, res *traffic.Result) int {
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

// startProgress launches a goroutine printing one progress line to w
// immediately and then every interval, reading the run's traffic family
// through the handles RunWith updates, and the Go heap. The returned stop
// function is idempotent: it prints a final line and waits for the
// goroutine to exit, so no write races the caller's own output.
func startProgress(w io.Writer, reg *metrics.Registry, every time.Duration) func() {
	m := traffic.NewRunMetrics(reg)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		var lastSettled uint64
		lastAt := time.Now()
		line := func() {
			settled := m.Settled.Value()
			now := time.Now()
			rate := 0.0
			if dt := now.Sub(lastAt).Seconds(); dt > 0 {
				rate = float64(settled-lastSettled) / dt
			}
			lastSettled, lastAt = settled, now
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			fmt.Fprintf(w, "progress: generated=%d simulated=%d settled=%d (%.0f/s wall) queue=%.0f in-flight=%.0f p50=%.3fms p99=%.3fms heap=%.1fMB\n",
				m.Generated.Value(), m.Simulated.Value(), settled, rate,
				m.QueueDepth.Value(), m.InFlight.Value(),
				m.Latency.Quantile(0.5), m.Latency.Quantile(0.99),
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
