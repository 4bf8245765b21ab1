package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fuzzMaxPayments caps the runs the fuzz target lets execute: a larger
// accepted request passed the same prepare gate, and running it would spend
// the fuzzing budget on one input.
const fuzzMaxPayments = 400

// FuzzStartRun is the POST /runs boundary, fuzzed: any byte string is
// answered 202, 400 or 413, and a run that was accepted finishes done or
// failed with an error — it never panics its goroutine (which would take the
// process, and every other run, with it). Seeded from the bodies the serve
// tests post.
func FuzzStartRun(f *testing.F) {
	for _, body := range []string{
		`{}`,
		`{"escrows": 3, "payments": 120, "rate": 800, "crypto": "hmac", "mix": "timelock=1,htlc=1"}`,
		`{"escrows": 2, "payments": 200, "rate": 1500, "crypto": "hmac", "stream": true, "liquidity": 300, "queue_patience_ms": 50}`,
		`{"escrows": 6, "payments": 300, "rate": 600, "crypto": "hmac", "mix": "timelock=0.4,weaklive=0.3,htlc=0.3", "subpaths": true,
		  "liquidity": 2000, "queue_patience_ms": 5000, "fault_fraction": 0.5, "fault_behaviours": ["silent", "crash"],
		  "fault_from_ms": 50, "fault_outage_ms": 400, "manager_outage_ms": 300}`,
		`{"payments": 50, "crypto": "hmac", "mix": "weaklive-committee", "faults": "notary0=equivocate,c1=silent", "arrival": "burst", "burst_size": 7, "burst_gap_ms": 3}`,
		`{"payments": 50, "crypto": "hmac", "amount_dist": "exponential", "amount": 7, "spread": 3, "max_queue": 2, "workers": 3, "seed": -9}`,
		`{`, `{"nope": 1}`, `{"mix": "notaproto=1"}`, `{"arrival": "always"}`, `{"faults": "c1"}`, `{"faults": "c1=bogus"}`,
		`{"commission": -1}`, `{"payments": -5}`, `{"escrows": 65}`, `{"payments":1099511627776}`,
		`{"workers":1000000000000}`, `{"amount_dist":"uniform","spread":4611686018427387904}`, `{"rate":1e-300}`,
		`{"mix": "` + strings.Repeat(" ", maxRequestBody) + `timelock=1"}`,
		`{"seed":0,"commission":0}`, `{"rate":0}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req := defaultRequest()
		if json.Unmarshal(body, &req) == nil {
			if req.Payments > fuzzMaxPayments {
				_, _, _, _ = req.prepare() // still must not panic
				return
			}
		}
		srv := newServerWith(serverOptions{maxRuns: 1})
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/runs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		case http.StatusAccepted:
		default:
			t.Fatalf("POST /runs answered %d: %s", rec.Code, rec.Body)
		}
		srv.wg.Wait()
		ru := srv.runs["run-0001"]
		if ru == nil || (ru.status != "done" && (ru.status != "failed" || ru.errMsg == "")) {
			t.Fatalf("accepted run ended as %+v", ru)
		}
	})
}
