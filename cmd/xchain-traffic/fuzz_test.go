package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/traffic"
)

// Caps of the runs FuzzTrafficArgs lets execute, as FuzzStartRun caps its
// own: a larger accepted request passed the same Build, and running it would
// spend the fuzzing budget on one input.
const (
	fuzzMaxPayments = 400
	fuzzMaxSweep    = 3
)

// FuzzTrafficArgs is xchain-traffic's argv, fuzzed (arguments NUL-separated):
// any argument list exits 0, 1 or 2 without a panic, and an exit 2 names a
// flag on its first line. An input that writes files, prints progress, or
// runs beyond the caps is only parsed and built; Build refuses a chain beyond
// core.MaxChain itself, so every -n is built. Seeded from TestRunBadFlags and
// from FuzzStartRun's bodies, rendered as arguments.
func FuzzTrafficArgs(f *testing.F) {
	for _, args := range [][]string{
		{"-no-such-flag"}, {"-shards", "2"}, {"-mix", "timelock=abc"}, {"-fault", "nonsense"},
		{"-mix", "no-such-protocol=1"}, {"-fault", "c1=sillent"}, {"-fault", "c1=silent,c77=silent"},
		{"-fault", "notaryX=silent"}, {"-fault", "c1=silent,c1=crash"}, {"-n", "0"}, {"-n", "-1"},
		{"-arrival", "brust"}, {"-n", "4", "-payments", "200", "-commission", "-60", "-crypto", "hmac"}, {"-h"},
		{"-rate", "0"}, {"-rate", "NaN"}, {"-burst-gap", "1.001ms", "-payments", "40", "-arrival", "burst"},
		{"-sweep-seeds", "-4"}, {"-exemplars", "-1"}, {"-max-verify-miss", "-1"}, {"-checkpoint-every", "-3"},
	} {
		f.Add(strings.Join(args, "\x00"))
	}
	for _, body := range []string{
		`{"escrows": 3, "payments": 120, "rate": 800, "crypto": "hmac", "mix": "timelock=1,htlc=1"}`,
		`{"escrows": 2, "payments": 200, "rate": 1500, "crypto": "hmac", "stream": true, "liquidity": 300, "queue_patience_ms": 50}`,
		`{"escrows": 6, "payments": 300, "rate": 600, "crypto": "hmac", "mix": "timelock=0.4,weaklive=0.3,htlc=0.3", "subpaths": true,
		  "liquidity": 2000, "queue_patience_ms": 5000, "fault_fraction": 0.5, "fault_behaviours": ["silent", "crash"],
		  "fault_from_ms": 50, "fault_outage_ms": 400, "manager_outage_ms": 300}`,
		`{"payments": 50, "crypto": "hmac", "mix": "weaklive-committee", "faults": "notary0=equivocate,c1=silent", "arrival": "burst", "burst_size": 7, "burst_gap_ms": 3}`,
		`{"payments": 50, "crypto": "hmac", "amount_dist": "exponential", "amount": 7, "spread": 3, "max_queue": 2, "workers": 3, "seed": -9}`,
		`{"mix": "notaproto=1"}`, `{"arrival": "always"}`, `{"faults": "c1"}`, `{"faults": "c1=bogus"}`,
		`{"commission": -1}`, `{"payments": -5}`, `{"escrows": 65}`, `{"payments":1099511627776}`,
		`{"workers":1000000000000}`, `{"amount_dist":"uniform","spread":4611686018427387904}`, `{"rate":1e-300}`,
		`{"seed":0,"commission":0}`, `{"rate":0}`,
	} {
		q, err := traffic.DecodeRequest(strings.NewReader(body))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(strings.Join(argv(f, q), "\x00"))
	}
	f.Fuzz(func(t *testing.T, joined string) {
		args := strings.Split(joined, "\x00")
		fs, q, o, err := parse(args, io.Discard)
		if err == nil && (q.Payments > fuzzMaxPayments || o.sweepSeeds > fuzzMaxSweep ||
			o.ckptPath != "" || o.resumePath != "" || o.cpuProfile != "" || o.memProfile != "" || o.progress != 0) {
			_, _, _, _ = q.Build() // still must not panic
			return
		}
		var out, errOut strings.Builder
		switch code := run(args, &out, &errOut); code {
		case 0, 1:
		case 2:
			first, _, _ := strings.Cut(errOut.String(), "\n")
			named := false
			fs.VisitAll(func(f *flag.Flag) {
				named = named || strings.Contains(first, "-"+f.Name+":") || strings.Contains(first, "-"+f.Name+" ")
			})
			// The flag package's own complaints name the argument they reject.
			if !named && !strings.Contains(errOut.String(), "Usage of xchain-traffic") {
				t.Fatalf("exit 2 names no flag: %q", errOut.String())
			}
		default:
			t.Fatalf("exit %d: %s", code, errOut.String())
		}
	})
}
