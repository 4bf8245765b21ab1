package traffic

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/sim"
	"repro/internal/stats"
)

// reenvelope wraps a snapshot payload in a fresh, correctly checksummed
// envelope and loads it back the way a resuming caller does. A payload the
// loader rejects (not JSON) yields an error.
func reenvelope(dir, configHash string, payload []byte) (*RunSnapshot, error) {
	file, err := checkpoint.Encode(SnapshotKind, configHash, payload)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "fuzz.ckpt")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		return nil, err
	}
	return LoadSnapshot(path)
}

// TestResumeRejectsBadSnapshot edits single fields of a loaded snapshot —
// edits an envelope checksum cannot see, since the envelope is rebuilt around
// them — and requires RunWith to refuse each with ErrBadSnapshot before
// restoring anything. The first three rows used to panic inside RunWith:
// index out of range in the settle action, and "ledger: no such ledger"
// twice; "queued-flight-admissible" would leave a waiter filed under no
// account, the clock rows would fire an event before the clock and move it
// back, and the histogram rows would report percentiles that miss latencies.
func TestResumeRejectsBadSnapshot(t *testing.T) {
	s, w, cfg := goldenTrafficRun()
	// firstHop is the capture of the ledger under flight 0's first hop.
	firstHop := func(sn *RunSnapshot) *ledger.LedgerState {
		for i := range sn.Ledgers {
			if sn.Ledgers[i].Name == core.EscrowID(sn.Flights[0].Sender) {
				return &sn.Ledgers[i]
			}
		}
		t.Fatal("no ledger under flight 0's first hop")
		return nil
	}
	refuse := func(t *testing.T, s core.Scenario, w Workload, cfg Config, sn *RunSnapshot) {
		t.Helper()
		payload, err := json.Marshal(sn)
		if err != nil {
			t.Fatal(err)
		}
		if sn, err = reenvelope(t.TempDir(), sn.ConfigHash, payload); err != nil {
			t.Fatalf("edited snapshot no longer loads: %v", err)
		}
		cfg.Resume = sn
		if res, err := RunWith(s, w, cfg); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("resume returned (%v, %v), want ErrBadSnapshot", res, err)
		}
	}
	for _, row := range []struct {
		name string
		edit func(sn *RunSnapshot)
	}{
		{"sender-outside-chain", func(sn *RunSnapshot) { sn.Flights[0].Sender = 40 }},
		{"ledger-renamed", func(sn *RunSnapshot) { sn.Ledgers[0].Name = "zz" }},
		{"ledger-missing", func(sn *RunSnapshot) { sn.Ledgers = sn.Ledgers[1:] }},
		{"receiver-past-bob", func(sn *RunSnapshot) { sn.Flights[0].Receiver = 4 }},
		{"flight-not-yet-admitted", func(sn *RunSnapshot) { sn.Flights[0].Index = sn.NextIndex }},
		{"flight-twice", func(sn *RunSnapshot) { sn.Flights = append(sn.Flights, sn.Flights[len(sn.Flights)-1]) }},
		{"resume-past-the-end", func(sn *RunSnapshot) { sn.NextIndex = w.Payments + 1 }},
		// The reservoir's draws are the payments settled.
		{"reservoir-ahead-of-run", func(sn *RunSnapshot) { sn.Partial.Total = sn.NextIndex + 1 }},
		{"histogram-in-keep-mode", func(sn *RunSnapshot) { sn.Agg.Hist = &stats.HistogramState{} }},
		{"settled-out-of-range", func(sn *RunSnapshot) { sn.Settled[0].Index = sn.NextIndex }},
		// The golden run's liquidity is auto-sized, so every hop of every
		// flight fits: a flight listed as waiting has no account to wait on.
		{"queued-flight-admissible", func(sn *RunSnapshot) { sn.Flights[0].InQueue = true }},
		// A flight derives every hop's amount from its base.
		{"hop-amount-not-positive", func(sn *RunSnapshot) { sn.Flights[0].Base = 0 }},
		{"protocol-outside-the-mix", func(sn *RunSnapshot) { sn.Flights[0].Protocol = "htlc-naive" }},
		// The admitted flights' hops on each escrow are what its ledger holds,
		// value and locks, all paid by its payer: one short, one more, or one
		// of another owner's would strand value or fail a settlement.
		{"flight-lock-not-held", func(sn *RunSnapshot) { firstHop(sn).Held[0].Value-- }},
		{"settled-lock-held", func(sn *RunSnapshot) {
			l := firstHop(sn)
			l.Held[0].Value += 7
			l.HeldLocks++
		}},
		{"held-count-off-by-one", func(sn *RunSnapshot) { firstHop(sn).HeldLocks-- }},
		{"held-by-non-payer", func(sn *RunSnapshot) {
			l := firstHop(sn)
			l.Held = append(l.Held, ledger.HeldState{Payer: core.CustomerID(sn.Flights[0].Sender + 1), Value: 1})
		}},
		// A flight is admitted between its arrival and the clock, and settles
		// no earlier than the clock (the first flight, payment 1, arrived at
		// 3.106 ms and is still in flight at the cut, 392.419 ms).
		{"admitted-before-arrival", func(sn *RunSnapshot) {
			f := &sn.Flights[0]
			f.Duration += f.Start - (f.Arrival - 1) // it settles when it did
			f.Start = f.Arrival - 1
		}},
		{"admitted-after-clock", func(sn *RunSnapshot) { sn.Flights[0].Start = sn.EngineNow + 1 }},
		{"settlement-due-before-clock", func(sn *RunSnapshot) {
			f := &sn.Flights[0]
			f.Duration = sn.EngineNow - 1 - f.Start
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			sn, err := LoadSnapshot(goldenTrafficSnapshot)
			if err != nil {
				t.Fatal(err)
			}
			row.edit(sn)
			refuse(t, s, w, cfg, sn)
		})
	}

	// Rows on other runs' snapshots: waiters, pending marks, dropped records.
	input := func(name string) latticeInput {
		for _, in := range latticeInputs() {
			if in.name == name {
				return in
			}
		}
		t.Fatalf("no lattice input %s", name)
		return latticeInput{}
	}
	// Two seconds in, the second burst's waiters have half a second's
	// patience.
	starved := input("starved-queue")
	starved.w = starved.w.WithQueue(500*sim.Millisecond, 0)
	waiter := func(sn *RunSnapshot) *FlightState {
		for i := range sn.Flights {
			if sn.Flights[i].InQueue {
				return &sn.Flights[i]
			}
		}
		t.Fatal("no flight waits at the cut")
		return nil
	}
	dropped := latticeInput{s: s, w: w, cuts: []int{200}}
	keep := Config{Workers: 2, Stream: true, KeepPayments: true}
	for _, row := range []struct {
		name string
		in   latticeInput
		cfg  Config
		edit func(sn *RunSnapshot)
	}{
		// A real queue, every balance flush: nothing refuses a waiter any more.
		{"waiters-admissible", input("refund-wake"), keep, func(sn *RunSnapshot) {
			for i := range sn.Ledgers {
				for a := range sn.Ledgers[i].Accounts {
					sn.Ledgers[i].Accounts[a].Balance = 1 << 40
				}
			}
		}},
		// The queued flights are the queue: a waiter dropped from them is a
		// payment that arrived and never settles.
		{"queued-flight-unlisted", input("refund-wake"), keep, func(sn *RunSnapshot) {
			i := slices.IndexFunc(sn.Flights, func(f FlightState) bool { return f == *waiter(sn) })
			sn.Flights = slices.Delete(sn.Flights, i, i+1)
		}},
		{"expiry-due-before-clock", starved, keep, func(sn *RunSnapshot) {
			waiter(sn).Arrival = sn.EngineNow - starved.w.QueuePatience - 1
		}},
		{"mark-due-before-clock", input("manager-outage"), keep, func(sn *RunSnapshot) { sn.Marks[0].At = sn.EngineNow - 1 }},
		{"mark-outside-chain", input("manager-outage"), keep, func(sn *RunSnapshot) { sn.Marks[0].Index = sn.Marks[0].Index + 40 }},
		// A run that drops its records takes its percentiles from the
		// histogram, which must hold every latency the run summed.
		{"histogram-missing", dropped, Config{Workers: 1, Stream: true, Crypto: cfg.Crypto}, func(sn *RunSnapshot) { sn.Agg.Hist = nil }},
		{"histogram-not-succeeded", dropped, Config{Workers: 1, Stream: true, Crypto: cfg.Crypto}, func(sn *RunSnapshot) { sn.Partial.Succeeded-- }},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := row.cfg
			cfg.InterruptAt, cfg.CheckpointPath = row.in.cuts[0], filepath.Join(t.TempDir(), "run.ckpt")
			if _, err := RunWith(row.in.s, row.in.w, cfg); !errors.Is(err, ErrInterrupted) {
				t.Fatalf("interrupted run returned %v", err)
			}
			sn, err := LoadSnapshot(cfg.CheckpointPath)
			if err != nil {
				t.Fatal(err)
			}
			row.edit(sn)
			cfg.InterruptAt = 0
			refuse(t, row.in.s, row.in.w, cfg, sn)
		})
	}
}

// snapshotEdits are the field edits FuzzResumeSnapshot applies to a decoded
// snapshot, each steered by an element index and a value the fuzzer picks.
var snapshotEdits = []func(sn *RunSnapshot, i int, v int64){
	func(sn *RunSnapshot, i int, v int64) {}, // bytes only
	func(sn *RunSnapshot, i int, v int64) { sn.NextIndex = int(v) },
	func(sn *RunSnapshot, i int, v int64) { sn.EngineNow, sn.EngineSeq = sim.Time(v), uint64(i) },
	func(sn *RunSnapshot, i int, v int64) { sn.Partial.Total = int(v) },
	func(sn *RunSnapshot, i int, v int64) { sn.Partial.Succeeded = int(v) },
	func(sn *RunSnapshot, i int, v int64) {
		sn.Agg.Reservoir = sn.Agg.Reservoir[:i%(len(sn.Agg.Reservoir)+1)]
	},
	func(sn *RunSnapshot, i int, v int64) {
		if h := sn.Agg.Hist; h != nil {
			h.N, h.Counts = uint64(v), h.Counts[:i%(len(h.Counts)+1)]
		}
	},
	func(sn *RunSnapshot, i int, v int64) { sn.Ledgers = sn.Ledgers[:i%(len(sn.Ledgers)+1)] },
	func(sn *RunSnapshot, i int, v int64) {
		if n := len(sn.Ledgers); n > 0 {
			sn.Ledgers[i%n].Name = core.EscrowID(int(v))
		}
	},
	func(sn *RunSnapshot, i int, v int64) {
		if n := len(sn.Settled); n > 0 {
			sn.Settled[i%n].Index = int(v)
		}
	},
	func(sn *RunSnapshot, i int, v int64) {
		if n := len(sn.Marks); n > 0 {
			sn.Marks[i%n].Index, sn.Marks[i%n].At = int(v), sim.Time(v)
		}
	},
	flightEdit(func(f *FlightState, v int64) { f.Index = int(v) }),
	flightEdit(func(f *FlightState, v int64) { f.Sender = int(v) }),
	flightEdit(func(f *FlightState, v int64) { f.Receiver = int(v) }),
	flightEdit(func(f *FlightState, v int64) { f.Base = v }),
	func(sn *RunSnapshot, i int, v int64) {
		if n := len(sn.Ledgers); n > 0 {
			l := &sn.Ledgers[i%n]
			l.Held = append(l.Held, ledger.HeldState{Payer: core.CustomerID(i % (n + 1)), Value: v})
		}
	},
	flightEdit(func(f *FlightState, v int64) { f.InQueue = !f.InQueue }),
	flightEdit(func(f *FlightState, v int64) { f.Start, f.Duration = sim.Time(v), sim.Time(-v) }),
	flightEdit(func(f *FlightState, v int64) { f.Attempts, f.Seq = int(v), uint64(v) }),
	// The payer balance under the first hop of a queued flight: raised far
	// enough, nothing refuses the flight any more.
	func(sn *RunSnapshot, i int, v int64) {
		queue := waiting(sn)
		if len(queue) == 0 {
			return
		}
		idx := queue[i%len(queue)]
		for _, f := range sn.Flights {
			for l := range sn.Ledgers {
				if f.Index != idx || sn.Ledgers[l].Name != core.EscrowID(f.Sender) {
					continue
				}
				for a := range sn.Ledgers[l].Accounts {
					if acct := &sn.Ledgers[l].Accounts[a]; acct.Owner == core.CustomerID(f.Sender) {
						acct.Balance = v
					}
				}
			}
		}
	},
	func(sn *RunSnapshot, i int, v int64) {
		if n := len(sn.Ledgers); n > 0 {
			sn.Ledgers[i%n].HeldLocks = int(v)
		}
	},
}

func flightEdit(edit func(f *FlightState, v int64)) func(*RunSnapshot, int, int64) {
	return func(sn *RunSnapshot, i int, v int64) {
		if n := len(sn.Flights); n > 0 {
			edit(&sn.Flights[i%n], v)
		}
	}
}

// fuzzSeed is one run FuzzResumeSnapshot edits snapshots of: its inputs and
// a snapshot it wrote mid-run.
type fuzzSeed struct {
	s   core.Scenario
	w   Workload
	cfg Config
	env *checkpoint.Envelope
}

// FuzzResumeSnapshot is the snapshot boundary, fuzzed: whatever sits inside
// a valid envelope, loading it and resuming under the configuration it names
// returns a Result or an error — never a panic, never a hang. An input is an
// edit of one of three seed payloads — the committed golden snapshot (every
// record kept), the same run's aggregate-only snapshot (histogram and
// exemplar reservoir) or a liquidity-bound run's snapshot taken with flights
// waiting in the queue: bytes spliced in at an offset, then, if the payload
// still decodes, one field edit from snapshotEdits. (The payloads are tens of
// KB of JSON; fuzzing them directly spends the whole budget minimising.)
func FuzzResumeSnapshot(f *testing.F) {
	s, w, cfg := goldenTrafficRun()
	golden, err := checkpoint.Load(goldenTrafficSnapshot, SnapshotKind)
	if err != nil {
		f.Fatal(err)
	}
	seeds := []fuzzSeed{{s, w, cfg, golden}}
	// interrupted writes the snapshot a seed run leaves when stopped at `at`.
	interrupted := func(s core.Scenario, w Workload, cfg Config, at int) {
		icfg := cfg
		icfg.InterruptAt, icfg.CheckpointPath = at, filepath.Join(f.TempDir(), "seed.ckpt")
		if _, err := RunWith(s, w, icfg); !errors.Is(err, ErrInterrupted) {
			f.Fatalf("seed run returned %v", err)
		}
		env, err := checkpoint.Load(icfg.CheckpointPath, SnapshotKind)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, fuzzSeed{s, w, cfg, env})
	}
	interrupted(s, w, Config{Workers: 1, Stream: true, Exemplars: 8, Crypto: cfg.Crypto}, 200)
	for _, in := range latticeInputs() {
		if in.name == "refund-wake" {
			interrupted(in.s, in.w, Config{Workers: 1}, in.cuts[0])
		}
	}
	var queued RunSnapshot
	if err := json.Unmarshal(seeds[2].env.Payload, &queued); err != nil || len(waiting(&queued)) == 0 {
		f.Fatalf("liquidity-bound seed holds %d queued flights (%v)", len(waiting(&queued)), err)
	}

	f.Add(uint8(0), uint32(0), []byte(nil), uint8(0), uint16(0), int64(0))
	f.Add(uint8(1), uint32(0), []byte(nil), uint8(0), uint16(0), int64(0))
	f.Add(uint8(2), uint32(0), []byte(nil), uint8(0), uint16(0), int64(0))
	f.Add(uint8(0), uint32(0), []byte(nil), uint8(14), uint16(0), int64(0))     // Flights[0].Base = 0
	f.Add(uint8(0), uint32(0), []byte(nil), uint8(12), uint16(0), int64(40))    // Flights[0].Sender = 40
	f.Add(uint8(0), uint32(0), []byte(nil), uint8(8), uint16(0), int64(99))     // Ledgers[0].Name = "e99"
	f.Add(uint8(2), uint32(0), []byte(nil), uint8(19), uint16(0), int64(1<<40)) // a waiter's first hop flush
	f.Add(uint8(1), uint32(0), []byte(nil), uint8(4), uint16(0), int64(0))      // no latency summed, some in the histogram
	f.Add(uint8(1), uint32(1000), []byte("-7"), uint8(6), uint16(3), int64(1))

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, pick uint8, off uint32, splice []byte, op uint8, idx uint16, val int64) {
		seed := seeds[int(pick)%len(seeds)]
		payload := append([]byte(nil), seed.env.Payload...)
		copy(payload[int(off)%len(payload):], splice)
		var sn RunSnapshot
		if json.Unmarshal(payload, &sn) == nil {
			snapshotEdits[int(op)%len(snapshotEdits)](&sn, int(idx), val)
			if payload, err = json.Marshal(&sn); err != nil {
				t.Fatal(err)
			}
		}
		// The envelope keeps the seed's hash, as an edit on disk would.
		loaded, err := reenvelope(dir, seed.env.ConfigHash, payload)
		if err != nil {
			return
		}
		cfg := seed.cfg
		cfg.Resume = loaded
		if res, err := RunWith(seed.s, seed.w, cfg); err == nil && res.Book == nil {
			t.Fatal("resume returned neither a Result nor an error")
		}
	})
}
