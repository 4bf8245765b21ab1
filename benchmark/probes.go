package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// probes holds the unit costs of the leaf calls a protocol run makes
// internally, measured from outside by fixed-count loops around the public
// functions. Leaf busy time = unit cost × the work the registry counted.
type probes struct {
	EngineNewUs   float64 // sim.NewEngine
	EventNs       float64 // ScheduleArgIn + fire
	SendDeliverNs float64 // netsim Send → Deliver, including its sim event
	KeyringNewUs  float64 // sig.NewKeyringWith, warm key cache
	SignUs        float64 // Keyring.Sign
	VerifyUs      float64 // Keyring.Verify, memo miss
	VerifyHitNs   float64 // Keyring.Verify, memo hit
	LockCycleNs   float64 // CreateLock + Release, compact ledger
	CustomerIDNs  float64 // core.CustomerID
	HistAddNs     float64 // stats.Histogram.Add
}

// probeReps is how often each probe loop repeats; the median is reported.
const probeReps = 5

// probeSink keeps probe results reachable so the compiler cannot drop the
// calls being timed.
var probeSink any

// timeLoop reports the median nanoseconds of one iteration of body, which
// runs n times per repetition.
func timeLoop(n int, body func(i int)) float64 {
	n = max(n, 1)
	var per []float64
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			body(i)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

func nopEvent(any) {}

// runProbes measures every leaf with the workload's signature backend and
// chain length (the key holders of a hops-escrow chain). scale shrinks the
// loop counts (1 for a real run; tests use a fraction).
func runProbes(backend string, hops int, scale float64) probes {
	var p probes
	n := func(full int) int { return max(int(float64(full)*scale), 16) }
	us := func(ns float64) float64 { return ns / 1e3 }

	p.EngineNewUs = us(timeLoop(n(2000), func(i int) { probeSink = sim.NewEngine(int64(i)) }))

	// Events are scheduled and fired in blocks of 64, about the number a
	// protocol run keeps pending; one iteration is one event.
	eng := sim.NewEngine(1)
	p.EventNs = timeLoop(n(200000), func(i int) {
		eng.ScheduleArgIn(sim.Time(1+i%7), "probe", nopEvent, nil)
		if i%64 == 63 {
			eng.Run(0)
		}
	})

	muted := trace.New()
	muted.Mute()
	neng := sim.NewEngine(2)
	net := netsim.New(neng, netsim.Synchronous{Min: sim.Millisecond, Max: 50 * sim.Millisecond}, muted)
	net.Register(&netsim.FuncNode{Id: "a"})
	net.Register(&netsim.FuncNode{Id: "b"})
	msg := netsim.RawMessage{Label: "probe"}
	p.SendDeliverNs = timeLoop(n(100000), func(i int) {
		net.Send("a", "b", msg)
		if i%16 == 15 {
			neng.Run(0)
		}
	})

	ids := core.NewTopology(hops).Participants()
	opts := sig.Options{Backend: backend}
	sig.NewKeyringWith(opts, "probe-keys", ids) // fill the key cache
	p.KeyringNewUs = us(timeLoop(n(2000), func(int) { probeSink = sig.NewKeyringWith(opts, "probe-keys", ids) }))

	kr := sig.NewKeyringWith(opts, "probe-keys", ids)
	signer := ids[0]
	payload := []byte("probe payload: a canonical artefact encoding is about this long, give or take")
	nCrypto := n(2000)
	if backend == "hmac" {
		nCrypto = n(20000)
	}
	p.SignUs = us(timeLoop(nCrypto, func(int) { probeSink = kr.Sign(signer, payload) }))

	// Memo misses need distinct artefacts: sign nCrypto payloads up front
	// and verify each once per repetition on a fresh keyring.
	payloads := make([][]byte, nCrypto)
	sigs := make([]sig.Signature, nCrypto)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("%s #%d", payload, i))
		sigs[i] = kr.Sign(signer, payloads[i])
	}
	var miss, hit []float64
	for r := 0; r < probeReps; r++ {
		fresh := sig.NewKeyringWith(sig.Options{Backend: backend, MemoCapacity: 2 * nCrypto}, "probe-keys", ids)
		t0 := time.Now()
		for i := range payloads {
			if !fresh.Verify(signer, payloads[i], sigs[i]) {
				panic("benchmark: probe signature does not verify")
			}
		}
		miss = append(miss, float64(time.Since(t0).Nanoseconds())/float64(nCrypto))
		t0 = time.Now()
		for i := range payloads {
			fresh.Verify(signer, payloads[i], sigs[i])
		}
		hit = append(hit, float64(time.Since(t0).Nanoseconds())/float64(nCrypto))
	}
	p.VerifyUs = median(miss) / 1e3
	p.VerifyHitNs = median(hit)

	l := ledger.New("probe")
	l.SetCompact(true)
	if err := l.Mint(0, "c0", 1<<40); err != nil {
		panic(err)
	}
	if err := l.CreateAccount("c1"); err != nil {
		panic(err)
	}
	lockIDs := make([]string, 4096)
	for i := range lockIDs {
		lockIDs[i] = fmt.Sprintf("probe-lock-%d", i)
	}
	p.LockCycleNs = timeLoop(n(100000), func(i int) {
		id := lockIDs[i%len(lockIDs)]
		if _, err := l.CreateLock(sim.Time(i), id, "c0", "c1", 100, ledger.Condition{}); err != nil {
			panic(err)
		}
		if err := l.Release(sim.Time(i), id, nil, sim.Time(i)); err != nil {
			panic(err)
		}
	})

	p.CustomerIDNs = timeLoop(n(200000), func(i int) { probeSink = core.CustomerID(i & 7) })

	h := stats.NewHistogram()
	p.HistAddNs = timeLoop(n(1000000), func(i int) { h.Add(float64(1 + i%5000)) })
	probeSink = h
	return p
}
