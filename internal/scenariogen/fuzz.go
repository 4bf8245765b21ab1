package scenariogen

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/sig"
	"repro/internal/sim"
)

// Options configures a fuzzing campaign.
type Options struct {
	// Seeds is how many consecutive seeds to run, starting at StartSeed.
	Seeds     int
	StartSeed int64
	// Workers bounds the goroutines running scenarios (0 = NumCPU), which
	// never outnumber the seeds. Results are aggregated in seed order, so the
	// worker count never changes them.
	Workers int
	// Families, if non-empty, restricts the campaign to these families;
	// seeds generating other families are counted as skipped.
	Families []Family
	// Crypto names the signature backend every generated scenario runs with
	// ("" keeps each spec's generated backend: ed25519 for single-payment
	// scenarios, hmac for traffic populations). Oracles are
	// backend-independent, so a campaign under "hmac" judges identical
	// verdicts at a fraction of the CPU cost.
	Crypto string
}

// Validate checks the options, naming the one at fault as xchain-fuzz's flag
// does (Fuzz itself runs a seed count below 1 as one seed).
func (o Options) Validate() error {
	_, known := sig.BackendByName(o.Crypto)
	switch {
	case o.Seeds < 1:
		return fmt.Errorf("seeds: need at least 1, got %d", o.Seeds)
	case o.Workers < 0:
		return fmt.Errorf("workers: need 0 (one per CPU) or more, got %d", o.Workers)
	case !known:
		return fmt.Errorf("crypto: unknown crypto backend %q (have %v)", o.Crypto, sig.BackendNames())
	}
	for _, f := range o.Families {
		if _, ok := ParseFamily(string(f)); !ok {
			return fmt.Errorf("families: unknown family %q", f)
		}
	}
	return nil
}

// workers is how many goroutines a campaign starts: Workers, or one per CPU,
// but no more than it has seeds or than its window lets run at once — a
// worker past either bound would only wait.
func (o Options) workers() int {
	n := o.Workers
	if n <= 0 {
		n = runtime.NumCPU()
	}
	return min(n, max(o.Seeds, 1), window)
}

// maxFailures is how many violating outcomes a campaign keeps; counting
// continues beyond it.
const maxFailures = 16

// Stats aggregates a fuzzing campaign.
type Stats struct {
	Runs       int
	Skipped    int
	Conforming int
	Violating  int
	ByFamily   map[Family]int
	// Violations holds up to maxFailures failing outcomes in seed order;
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

// window is how far past the earliest unfinished seed a campaign's workers
// may run. Finished seeds wait in a ring of this size until every earlier
// seed is done, then fold into Stats in seed order, so a campaign's memory
// does not grow with its seed count.
const window = 256

// Fuzz runs a campaign: Generate each seed, run its oracle, aggregate. The
// aggregation is deterministic in (Options) regardless of Workers. Each
// worker draws its specs from one standing generator, reseeded per seed, and
// judges them on one standing pair of worlds into one standing Outcome — a
// world is reset, not rebuilt, between scenarios, and the outcome is written
// over — and a scenario that panics costs the campaign that seed, not the
// run. What the worker keeps lives as long as the Fuzz call.
func Fuzz(opts Options) *Stats { return fuzz(opts, judge) }

// tally is what the fold needs of one seed; the ring holds it from the
// seed's end until every earlier seed has folded. kept is a copy of the
// seed's outcome, made only while Stats may still keep it.
type tally struct {
	family                         Family
	expected                       uint16 // bit k: core.AllProperties()[k] failed where permitted
	done                           bool
	ran                            bool // false: the seed's family is filtered out
	conforming, theorem2, violated bool

	kept *Outcome
}

// tallyOf is the tally of a judged seed's outcome.
func tallyOf(o *Outcome) tally {
	t := tally{
		family: o.Spec.Family, done: true, ran: true,
		conforming: o.Class == ClassConforming, theorem2: o.Theorem2, violated: !o.OK(),
	}
	for _, p := range o.ExpectedFailures {
		if k := slices.Index(core.AllProperties(), p); k >= 0 {
			t.expected |= 1 << k
		}
	}
	return t
}

// fuzz is Fuzz judging each spec with run, which fills the Outcome it is
// handed.
func fuzz(opts Options, run func(Spec, *worlds, *Outcome)) *Stats {
	if opts.Seeds <= 0 {
		opts.Seeds = 1
	}
	allowed := map[Family]bool{}
	for _, f := range opts.Families {
		allowed[f] = true
	}
	st := &Stats{ByFamily: map[Family]int{}, ExpectedCounts: map[core.Property]int{}}
	var (
		mu     sync.Mutex
		moved  = sync.NewCond(&mu)    // folded advanced
		ring   [window]tally          // seed i's tally at i%window until folded
		folded int64                  // seeds [0, folded) are in st
		first  = int64(math.MaxInt64) // the earliest seed whose Theorem-2 outcome was copied
		wg     sync.WaitGroup
		next   atomic.Int64 // the next unclaimed seed index
	)
	for w := 0; w < opts.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				ws  worlds
				gen = generator{rng: sim.NewRand(0)}
				out Outcome
			)
			for i := next.Add(1) - 1; i < int64(opts.Seeds); i = next.Add(1) - 1 {
				mu.Lock()
				for i >= folded+window {
					moved.Wait()
				}
				mu.Unlock()
				t := tally{done: true}
				seed := opts.StartSeed + i
				// The family is the first draw: a filtered-out seed is
				// counted without the rest of its spec.
				if sh := gen.shape(seed); len(allowed) == 0 || allowed[sh.family] {
					sp := gen.spec(seed, sh)
					if opts.Crypto != "" {
						sp.Crypto = opts.Crypto
					}
					runGuarded(sp, &ws, &out, run)
					t = tallyOf(&out)
				}
				mu.Lock()
				// Stats keeps the earliest Theorem-2 outcome and the first
				// maxFailures violating ones: an outcome is copied unless an
				// earlier one is sure to take its place.
				if t.theorem2 && st.FirstTheorem2 == nil && i < first {
					t.kept, first = out.clone(), i
				}
				if t.violated && len(st.Violations) < maxFailures && t.kept == nil {
					t.kept = out.clone()
				}
				ring[i%window] = t
				for r := &ring[folded%window]; r.done; r = &ring[folded%window] {
					st.fold(r)
					*r = tally{}
					folded++
				}
				mu.Unlock()
				moved.Broadcast()
			}
		}()
	}
	wg.Wait()
	return st
}

// fold adds the next seed's tally to the campaign's aggregates.
func (s *Stats) fold(t *tally) {
	if !t.ran {
		s.Skipped++
		return
	}
	s.Runs++
	s.ByFamily[t.family]++
	if t.conforming {
		s.Conforming++
	} else {
		s.Violating++
	}
	for k, p := range core.AllProperties() {
		if t.expected&(1<<k) != 0 {
			s.ExpectedCounts[p]++
		}
	}
	if t.theorem2 {
		s.Theorem2Count++
		if s.FirstTheorem2 == nil {
			s.FirstTheorem2 = t.kept
		}
	}
	if t.violated {
		s.ViolationCount++
		if len(s.Violations) < maxFailures {
			s.Violations = append(s.Violations, t.kept)
		}
	}
}

// runGuarded is run(sp, ws, out) with a panic turned into a finding: the
// outcome of a scenario that panics is a KindEngine violation naming the
// seed and the panic value, and the worlds it ran on — whose state is
// unknown — are dropped, so the next scenario builds new ones.
func runGuarded(sp Spec, ws *worlds, out *Outcome, run func(Spec, *worlds, *Outcome)) {
	defer func() {
		if r := recover(); r != nil {
			*ws = worlds{}
			out.reset(&sp)
			out.Violations = append(out.Violations, Violation{
				Kind:   KindEngine,
				Detail: fmt.Sprintf("seed %d panicked: %v", sp.Seed, r),
			})
		}
	}()
	run(sp, ws, out)
}
