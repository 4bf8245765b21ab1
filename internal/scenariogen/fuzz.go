package scenariogen

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/sim"
)

// Options configures a fuzzing campaign.
type Options struct {
	// Seeds is how many consecutive seeds to run, starting at StartSeed.
	Seeds     int
	StartSeed int64
	// Workers bounds the goroutines running scenarios (0 = NumCPU). Results
	// are aggregated in seed order, so the worker count never changes them.
	Workers int
	// Families, if non-empty, restricts the campaign to these families;
	// seeds generating other families are counted as skipped.
	Families []Family
	// MaxFailures stops collecting violation outcomes beyond this many
	// (0 = 16); counting continues.
	MaxFailures int
	// Crypto names the signature backend every generated scenario runs with
	// ("" keeps each spec's generated backend: ed25519 for single-payment
	// scenarios, hmac for traffic populations). Oracles are
	// backend-independent, so a campaign under "hmac" judges identical
	// verdicts at a fraction of the CPU cost.
	Crypto string
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

func (o Options) maxFailures() int {
	if o.MaxFailures > 0 {
		return o.MaxFailures
	}
	return 16
}

// Stats aggregates a fuzzing campaign.
type Stats struct {
	Runs       int
	Skipped    int
	Conforming int
	Violating  int
	ByFamily   map[Family]int
	// Violations holds up to MaxFailures failing outcomes in seed order;
	// ViolationCount counts all of them.
	Violations     []*Outcome
	ViolationCount int
	// Theorem2Count counts violating-class timeout-family runs whose
	// schedule defeated Definition 1; FirstTheorem2 keeps the earliest.
	Theorem2Count int
	FirstTheorem2 *Outcome
	// ExpectedCounts tallies expected (theorem-shaped) property failures.
	ExpectedCounts map[core.Property]int
}

// Clean reports whether no oracle violation was found.
func (s *Stats) Clean() bool { return s.ViolationCount == 0 }

// String renders the campaign summary.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenarios: %d run (%d conforming, %d violating, %d skipped)\n", s.Runs, s.Conforming, s.Violating, s.Skipped)
	fams := make([]string, 0, len(s.ByFamily))
	for f := range s.ByFamily {
		fams = append(fams, string(f))
	}
	sort.Strings(fams)
	for _, f := range fams {
		fmt.Fprintf(&b, "  %-20s %6d\n", f, s.ByFamily[Family(f)])
	}
	if len(s.ExpectedCounts) > 0 {
		fmt.Fprintf(&b, "expected theorem-shaped failures (envelope-violating/baseline runs only):\n")
		for _, p := range core.AllProperties() {
			if n := s.ExpectedCounts[p]; n > 0 {
				fmt.Fprintf(&b, "  %-4s %6d\n", p, n)
			}
		}
	}
	fmt.Fprintf(&b, "theorem-2 rediscoveries: %d\n", s.Theorem2Count)
	fmt.Fprintf(&b, "property violations (bugs): %d\n", s.ViolationCount)
	return b.String()
}

// Fuzz runs a campaign: Generate each seed, run its oracle, aggregate. The
// aggregation is deterministic in (Options) regardless of Workers. Each
// worker draws its specs from one standing generator, reseeded per seed, and
// judges them on one standing pair of worlds — a world is reset, not
// rebuilt, between scenarios — and a scenario that panics costs the campaign
// that seed, not the run.
func Fuzz(opts Options) *Stats {
	if opts.Seeds <= 0 {
		opts.Seeds = 1
	}
	allowed := map[Family]bool{}
	for _, f := range opts.Families {
		allowed[f] = true
	}
	outcomes := make([]*Outcome, opts.Seeds)
	var wg sync.WaitGroup
	var next atomic.Int64 // the next unclaimed index into outcomes
	for w := 0; w < opts.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ws worlds
			rng := sim.NewRand(0)
			for i := next.Add(1) - 1; i < int64(opts.Seeds); i = next.Add(1) - 1 {
				sp := generate(rng, opts.StartSeed+i)
				if opts.Crypto != "" {
					sp.Crypto = opts.Crypto
				}
				if len(allowed) > 0 && !allowed[sp.Family] {
					continue
				}
				outcomes[i] = runGuarded(sp, &ws, judge)
			}
		}()
	}
	wg.Wait()

	st := &Stats{ByFamily: map[Family]int{}, ExpectedCounts: map[core.Property]int{}}
	for _, o := range outcomes {
		if o == nil {
			st.Skipped++
			continue
		}
		st.Runs++
		st.ByFamily[o.Spec.Family]++
		if o.Class == ClassConforming {
			st.Conforming++
		} else {
			st.Violating++
		}
		for _, p := range o.ExpectedFailures {
			st.ExpectedCounts[p]++
		}
		if o.Theorem2 {
			st.Theorem2Count++
			if st.FirstTheorem2 == nil {
				st.FirstTheorem2 = o
			}
		}
		if !o.OK() {
			st.ViolationCount++
			if len(st.Violations) < opts.maxFailures() {
				st.Violations = append(st.Violations, o)
			}
		}
	}
	return st
}

// runGuarded is run(sp, ws) with a panic turned into a finding: the outcome
// of a scenario that panics is a KindEngine violation naming the seed and the
// panic value, and the worlds it ran on — whose state is unknown — are
// dropped, so the next scenario builds new ones.
func runGuarded(sp Spec, ws *worlds, run func(Spec, *worlds) *Outcome) (out *Outcome) {
	defer func() {
		if r := recover(); r != nil {
			*ws = worlds{}
			out = &Outcome{Spec: sp, Class: sp.Class(), Violations: []Violation{{
				Kind:   KindEngine,
				Detail: fmt.Sprintf("seed %d panicked: %v", sp.Seed, r),
			}}}
		}
	}()
	return run(sp, ws)
}
