package traffic

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// reenvelope wraps a snapshot payload in a fresh, correctly checksummed
// envelope and loads it back the way a resuming caller does. A payload the
// loader rejects (not JSON, a different config hash than its envelope's)
// yields an error.
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

// TestResumeRejectsBadSnapshot edits single fields of the loaded golden
// snapshot — edits an envelope checksum cannot see, since the envelope is
// rebuilt around them — and requires RunWith to refuse each with
// ErrBadSnapshot before restoring anything. The first three rows used to
// panic inside RunWith: index out of range in the settle action, and
// "ledger: no such ledger" twice; "queued-flight-admissible" would leave a
// waiter filed under no account.
func TestResumeRejectsBadSnapshot(t *testing.T) {
	s, w, cfg := goldenTrafficRun()
	for _, row := range []struct {
		name string
		edit func(sn *RunSnapshot)
	}{
		{"amounts-dropped", func(sn *RunSnapshot) { sn.Flights[0].Amounts = nil }},
		{"sender-outside-chain", func(sn *RunSnapshot) { sn.Flights[0].Sender = 40 }},
		{"ledger-renamed", func(sn *RunSnapshot) { sn.Ledgers[0].Name = "zz" }},
		{"ledger-missing", func(sn *RunSnapshot) { sn.Ledgers = sn.Ledgers[1:] }},
		{"receiver-past-bob", func(sn *RunSnapshot) { sn.Flights[0].Receiver = 4 }},
		{"flight-not-yet-admitted", func(sn *RunSnapshot) { sn.Flights[0].Index = sn.NextIndex }},
		{"flight-twice", func(sn *RunSnapshot) { sn.Flights = append(sn.Flights, sn.Flights[len(sn.Flights)-1]) }},
		{"queue-lists-in-flight-payment", func(sn *RunSnapshot) { sn.Queue = append(sn.Queue, sn.Flights[0].Index) }},
		{"queued-flight-unlisted", func(sn *RunSnapshot) { sn.Flights[0].InQueue = true }},
		{"resume-past-the-end", func(sn *RunSnapshot) { sn.NextIndex = w.Payments + 1 }},
		{"reservoir-ahead-of-run", func(sn *RunSnapshot) { sn.Agg.ResSeen = sn.NextIndex + 1 }},
		{"histogram-in-keep-mode", func(sn *RunSnapshot) { sn.Agg.Hist = &stats.HistogramState{} }},
		{"settled-out-of-range", func(sn *RunSnapshot) { sn.Settled[0].Index = sn.NextIndex }},
		// The golden run's liquidity is auto-sized, so every hop of every
		// flight fits: a flight listed as waiting has no account to wait on.
		{"queued-flight-admissible", func(sn *RunSnapshot) {
			sn.Flights[0].InQueue, sn.Queue = true, []int{sn.Flights[0].Index}
		}},
		{"hop-amount-not-positive", func(sn *RunSnapshot) { sn.Flights[0].Amounts[0] = 0 }},
	} {
		t.Run(row.name, func(t *testing.T) {
			sn, err := LoadSnapshot(goldenTrafficSnapshot)
			if err != nil {
				t.Fatal(err)
			}
			row.edit(sn)
			payload, err := json.Marshal(sn)
			if err != nil {
				t.Fatal(err)
			}
			if sn, err = reenvelope(t.TempDir(), sn.ConfigHash, payload); err != nil {
				t.Fatalf("edited snapshot no longer loads: %v", err)
			}
			cfg := cfg
			cfg.Resume = sn
			if res, err := RunWith(s, w, cfg); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("resume returned (%v, %v), want ErrBadSnapshot", res, err)
			}
		})
	}
}

// snapshotEdits are the field edits FuzzResumeSnapshot applies to a decoded
// snapshot, each steered by an element index and a value the fuzzer picks.
var snapshotEdits = []func(sn *RunSnapshot, i int, v int64){
	func(sn *RunSnapshot, i int, v int64) {}, // bytes only
	func(sn *RunSnapshot, i int, v int64) { sn.NextIndex = int(v) },
	func(sn *RunSnapshot, i int, v int64) { sn.EngineNow, sn.EngineSeq = sim.Time(v), uint64(i) },
	func(sn *RunSnapshot, i int, v int64) { sn.Agg.ResSeen = int(v) },
	func(sn *RunSnapshot, i int, v int64) { sn.Agg.LatCount = int(v) },
	func(sn *RunSnapshot, i int, v int64) {
		sn.Agg.Reservoir = sn.Agg.Reservoir[:i%(len(sn.Agg.Reservoir)+1)]
	},
	func(sn *RunSnapshot, i int, v int64) {
		if h := sn.Agg.Hist; h != nil {
			h.N, h.Counts = uint64(v), h.Counts[:i%(len(h.Counts)+1)]
		}
	},
	func(sn *RunSnapshot, i int, v int64) { sn.Queue = append(sn.Queue, int(v)) },
	func(sn *RunSnapshot, i int, v int64) { sn.Queue = sn.Queue[:i%(len(sn.Queue)+1)] },
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
	flightEdit(func(f *FlightState, v int64) { f.Amounts = f.Amounts[:int(uint64(v)%uint64(len(f.Amounts)+1))] }),
	flightEdit(func(f *FlightState, v int64) { f.Amounts = append(f.Amounts, v) }),
	flightEdit(func(f *FlightState, v int64) { f.InQueue = !f.InQueue }),
	flightEdit(func(f *FlightState, v int64) { f.Timer.At, f.Duration = sim.Time(v), sim.Time(-v) }),
	flightEdit(func(f *FlightState, v int64) { f.LockID, f.Attempts = "", int(v) }),
	// The payer balance under the first hop of a queued flight: raised far
	// enough, nothing refuses the flight any more.
	func(sn *RunSnapshot, i int, v int64) {
		if len(sn.Queue) == 0 {
			return
		}
		idx := sn.Queue[i%len(sn.Queue)]
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
// still decodes, one field edit from snapshotEdits. (The payloads are ~200 KB
// of JSON; fuzzing them directly spends the whole budget minimising.)
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
			interrupted(in.s, in.w, Config{Workers: 1}, in.cut)
		}
	}
	var queued RunSnapshot
	if err := json.Unmarshal(seeds[2].env.Payload, &queued); err != nil || len(queued.Queue) == 0 {
		f.Fatalf("liquidity-bound seed holds %d queued flights (%v)", len(queued.Queue), err)
	}

	f.Add(uint8(0), uint32(0), []byte(nil), uint8(0), uint16(0), int64(0))
	f.Add(uint8(1), uint32(0), []byte(nil), uint8(0), uint16(0), int64(0))
	f.Add(uint8(2), uint32(0), []byte(nil), uint8(0), uint16(0), int64(0))
	f.Add(uint8(0), uint32(0), []byte(nil), uint8(16), uint16(0), int64(0))     // Flights[0].Amounts = nil
	f.Add(uint8(0), uint32(0), []byte(nil), uint8(14), uint16(0), int64(40))    // Flights[0].Sender = 40
	f.Add(uint8(0), uint32(0), []byte(nil), uint8(10), uint16(0), int64(99))    // Ledgers[0].Name = "e99"
	f.Add(uint8(2), uint32(0), []byte(nil), uint8(21), uint16(0), int64(1<<40)) // a waiter's first hop flush
	f.Add(uint8(2), uint32(0), []byte(nil), uint8(8), uint16(1), int64(0))      // Queue cut to one entry
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
		// The envelope keeps the seed's hash, as an edit on disk would; a
		// splice that hit the payload's own copy of it fails to load.
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
