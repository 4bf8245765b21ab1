package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// post starts a run and returns its id.
func post(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /runs = %d: %s", resp.StatusCode, raw)
	}
	var v struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("bad POST response %q: %v", raw, err)
	}
	if v.ID == "" || v.Status != "running" {
		t.Fatalf("unexpected POST response: %s", raw)
	}
	return v.ID
}

// get fetches a JSON document.
func get(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", path, raw, err)
		}
	}
	return resp.StatusCode
}

// waitDone polls GET /runs/{id} until the run leaves "running".
func waitDone(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var v map[string]any
		if code := get(t, ts, "/runs/"+id, &v); code != http.StatusOK {
			t.Fatalf("GET /runs/%s = %d", id, code)
		}
		if v["status"] != "running" {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("run %s never finished", id)
	return nil
}

// TestServeEndToEnd drives the full surface: healthz, two runs (one
// streaming), per-run progress, the runs listing, and a /metrics scrape
// covering the sim, net, traffic, ledger and sig families with run labels.
func TestServeEndToEnd(t *testing.T) {
	// Explicit maxRuns: the default is NumCPU, which on a single-core
	// machine would 429 the second concurrent run.
	ts := httptest.NewServer(newServerWith(serverOptions{maxRuns: 4}))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()

	id1 := post(t, ts, `{"escrows": 3, "payments": 120, "rate": 800, "crypto": "hmac", "mix": "timelock=1,htlc=1"}`)
	id2 := post(t, ts, `{"escrows": 2, "payments": 200, "rate": 1500, "crypto": "hmac", "stream": true, "liquidity": 300, "queue_patience_ms": 50}`)

	v1 := waitDone(t, ts, id1)
	v2 := waitDone(t, ts, id2)
	for _, v := range []map[string]any{v1, v2} {
		if v["status"] != "done" {
			t.Fatalf("run failed: %v", v)
		}
		result := v["result"].(map[string]any)
		if result["audit_ok"] != true || result["pending_locks"] != float64(0) {
			t.Fatalf("ledger state after run: %v", result)
		}
		prog := v["progress"].(map[string]any)
		if prog["generated"].(float64) != result["total"].(float64) {
			t.Errorf("progress generated %v != total %v", prog["generated"], result["total"])
		}
		if prog["in_flight"].(float64) != 0 || prog["queue_depth"].(float64) != 0 {
			t.Errorf("gauges not drained: %v", prog)
		}
	}

	var list struct {
		Runs []map[string]any `json:"runs"`
	}
	if code := get(t, ts, "/runs", &list); code != http.StatusOK || len(list.Runs) != 2 {
		t.Fatalf("GET /runs = %d with %d runs", code, len(list.Runs))
	}
	if list.Runs[0]["id"] != id2 {
		t.Errorf("listing not newest-first: %v", list.Runs)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	scrape := string(body)
	// Every family of the instrumented stack is present...
	for _, family := range []string{
		"xchain_sim_events_fired_total",
		"xchain_sim_virtual_time_ms",
		"xchain_net_messages_delivered_total",
		"xchain_traffic_payments_settled_total",
		"xchain_traffic_latency_ms",
		"xchain_ledger_locks_created_total",
		"xchain_ledger_ops_total",
		"xchain_sig_keygen_cache_hits_total",
		"xchain_serve_runs",
	} {
		if !strings.Contains(scrape, "# TYPE "+family+" ") {
			t.Errorf("scrape missing family %s", family)
		}
		if c := strings.Count(scrape, "# TYPE "+family+" "); c != 1 {
			t.Errorf("family %s has %d TYPE headers, want 1 (merge broken)", family, c)
		}
	}
	// ...and per-run samples are distinguished by the run label.
	for _, id := range []string{id1, id2} {
		if !strings.Contains(scrape, fmt.Sprintf(`xchain_traffic_payments_settled_total{run=%q}`, id)) {
			t.Errorf("scrape missing settled counter for %s:\n%s", id, firstLines(scrape, 40))
		}
	}
	// The streaming run alone exercised the chunk counters.
	if !strings.Contains(scrape, fmt.Sprintf(`xchain_traffic_chunks_generated_total{run=%q}`, id2)) {
		t.Errorf("scrape missing chunk counters for streaming run")
	}
	// Prometheus text format sanity: every non-comment line is
	// "name{labels} value" with a parseable float value.
	for _, line := range strings.Split(strings.TrimSuffix(scrape, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
		if _, err := parseFloat(fields[1]); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
	}
}

// TestServeByzantineRun submits a run with a fault plan and checks the
// summary exposes the attack's footprint while the aggregate safety oracle
// stays clean, and that the Byzantine metric families reach /metrics.
func TestServeByzantineRun(t *testing.T) {
	ts := httptest.NewServer(newServer(false))
	defer ts.Close()

	id := post(t, ts, `{"escrows": 6, "payments": 300, "rate": 600, "crypto": "hmac",
		"mix": "timelock=0.4,weaklive=0.3,htlc=0.3",
		"liquidity": 1500, "queue_patience_ms": 2000,
		"fault_fraction": 0.25, "fault_behaviours": ["silent", "withhold"],
		"fault_from_ms": 50, "fault_outage_ms": 400, "manager_outage_ms": 300}`)
	v := waitDone(t, ts, id)
	if v["status"] != "done" {
		t.Fatalf("faulted run failed: %v", v)
	}
	result := v["result"].(map[string]any)
	if result["safety_violations"] != float64(0) {
		t.Fatalf("aggregate safety oracle violated: %v", result)
	}
	if result["audit_ok"] != true || result["cascade_ok"] != true || result["pending_locks"] != float64(0) {
		t.Fatalf("conservation broken under faults: %v", result)
	}
	if result["byzantine_connectors"].(float64) <= 0 {
		t.Fatalf("fault plan compiled no Byzantine connectors: %v", result)
	}
	if result["faulted_payments"].(float64) <= 0 {
		t.Fatalf("fault plan never touched a payment: %v", result)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	scrape := string(body)
	for _, family := range []string{
		"xchain_traffic_byzantine_connectors",
		"xchain_traffic_byzantine_payments_total",
		"xchain_traffic_safety_violations_total",
		"xchain_traffic_liquidity_byzantine_units",
	} {
		if !strings.Contains(scrape, "# TYPE "+family+" ") {
			t.Errorf("scrape missing family %s", family)
		}
	}
}

// TestServeValidation rejects malformed and unknown inputs synchronously.
func TestServeValidation(t *testing.T) {
	ts := httptest.NewServer(newServer(false))
	defer ts.Close()

	for _, tc := range []struct {
		name string
		body string
	}{
		{"bad json", `{`},
		{"unknown field", `{"nope": 1}`},
		{"unknown protocol", `{"mix": "notaproto=1", "payments": 10}`},
		{"bad arrival", `{"arrival": "always", "payments": 10}`},
		{"bad faults", `{"faults": "c1"}`},
		{"unknown behaviour", `{"faults": "c1=bogus"}`},
		{"participant off the chain", `{"escrows": 3, "faults": "c4=silent"}`},
		{"malformed notary", `{"faults": "notaryX=silent"}`},
		{"bad mix weight", `{"mix": "timelock=heavy"}`},
		{"negative commission", `{"commission": -1, "payments": 10}`},
		{"zero rate", `{"rate": 0}`},
		{"zero amount", `{"amount": 0}`},
		{"zero payments", `{"payments": 0}`},
		{"zero escrows", `{"escrows": 0}`},
	} {
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: POST = %d, want 400 (%s)", tc.name, resp.StatusCode, raw)
		}
	}
	if code := get(t, ts, "/runs/run-9999", nil); code != http.StatusNotFound {
		t.Errorf("missing run returned %d, want 404", code)
	}
}

// TestServeHonoursExplicitZeros: a key the body spells out is the caller's
// value even when it is zero — seed 0 and commission 0 are as legal here as
// on the xchain-traffic command line — while an absent key keeps the CLI's
// default.
func TestServeHonoursExplicitZeros(t *testing.T) {
	ts := httptest.NewServer(newServerWith(serverOptions{maxRuns: 1}))
	defer ts.Close()

	direct := func(seed, commission int64) string {
		// Two commission-free payments fit an account's 210 at once; with
		// the default commission Alice pays 107 and only one does.
		w := traffic.NewWorkload(60).WithLiquidity(210)
		w.Arrival.Rate = traffic.DefaultRequest().Rate
		w.Commission = commission
		res, err := traffic.RunWith(core.NewScenario(traffic.DefaultRequest().Escrows, seed), w, traffic.Config{Crypto: "hmac"})
		if err != nil {
			t.Fatal(err)
		}
		return res.String()
	}
	for _, tc := range []struct {
		body       string
		seed       int64
		commission int64
	}{
		{`{"seed": 0, "commission": 0, "payments": 60, "liquidity": 210, "crypto": "hmac"}`, 0, 0},
		{`{"payments": 60, "liquidity": 210, "crypto": "hmac"}`, traffic.DefaultRequest().Seed, traffic.DefaultRequest().Commission},
	} {
		v := waitDone(t, ts, post(t, ts, tc.body))
		want := direct(tc.seed, tc.commission)
		if v["status"] != "done" || v["summary"] != want {
			t.Errorf("%s ended %v:\n%v\n-- want --\n%s", tc.body, v["status"], v["summary"], want)
		}
		if !strings.Contains(want, fmt.Sprintf("(seed %d)", tc.seed)) {
			t.Errorf("summary does not name seed %d:\n%s", tc.seed, want)
		}
	}
	if a, b := direct(0, 0), direct(0, 1); a == b {
		t.Error("commission does not show in the summary: the test cannot tell 0 from the default")
	}
}

// TestServeBurstDefaultsAreTheCLIs: `{"arrival": "burst"}` runs the bursts
// `xchain-traffic -arrival burst` runs (its -burst and -burst-gap defaults),
// not the engine's. A request file persisted before the defaults existed
// spells out zeros, which still build the engine's bursts, so a recovered run
// keeps the workload it was checkpointed under.
func TestServeBurstDefaultsAreTheCLIs(t *testing.T) {
	for _, tc := range []struct {
		body string
		size int
		gap  sim.Time
	}{
		{`{"arrival": "burst"}`, 25, 2 * sim.Second},
		{`{"arrival": "burst", "burst_size": 0, "burst_gap_ms": 0}`, 0, 0},
		{`{"arrival": "burst", "burst_size": 7, "burst_gap_ms": 3}`, 7, 3 * sim.Millisecond},
	} {
		req, err := traffic.DecodeRequest(strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		_, wl, _, err := prepare(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		if a := wl.Arrival; a.BurstSize != tc.size || a.BurstGap != tc.gap {
			t.Errorf("%s builds bursts of %d every %v, want %d every %v", tc.body, a.BurstSize, a.BurstGap, tc.size, tc.gap)
		}
	}
}

// TestServeBodyLimit posts a body over maxRequestBody — valid JSON all the
// way, so only the size can reject it: the answer is 413 with the typed JSON
// error, and no run was registered.
func TestServeBodyLimit(t *testing.T) {
	ts := httptest.NewServer(newServer(false))
	defer ts.Close()

	body := `{"payments": 10, "mix": "` + strings.Repeat(" ", maxRequestBody) + `timelock=1"}`
	resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize POST = %d, want 413 (%s)", resp.StatusCode, raw)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &e); err != nil || !strings.Contains(e.Error, "exceeds") {
		t.Fatalf("oversize POST body %q is not the typed JSON error (%v)", raw, err)
	}
	var list struct {
		Runs []any `json:"runs"`
	}
	if code := get(t, ts, "/runs", &list); code != http.StatusOK || len(list.Runs) != 0 {
		t.Fatalf("after the rejected POST, GET /runs = %d with %d runs, want 200 with none", code, len(list.Runs))
	}
}

// TestServeConnectionDeadlines pins that the listening server bounds how
// long a client may take over its headers, its request and an idle
// connection, and shows the first bound at work: a client that sends half a
// request line and stalls is disconnected instead of holding its goroutine.
func TestServeConnectionDeadlines(t *testing.T) {
	hs := newHTTPServer("127.0.0.1:0", newServer(false))
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout < hs.ReadHeaderTimeout || hs.IdleTimeout <= 0 {
		t.Fatalf("deadlines not set: header %v, read %v, idle %v", hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}

	hs.ReadHeaderTimeout = 100 * time.Millisecond // the production value, shortened for the test
	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close below
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /runs HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // a TCP conn accepts deadlines
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("a client stalled in its headers was not disconnected: %v", err)
	}
}

// TestServeBackpressure saturates a one-slot server: the second POST gets
// 429 with Retry-After, the admission counters reach /metrics, and after
// drain() further POSTs get 503 while the in-flight run reports
// "interrupted".
func TestServeBackpressure(t *testing.T) {
	srv := newServerWith(serverOptions{maxRuns: 1, drainTimeout: 30 * time.Second})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Big enough to still be executing while we probe the full surface.
	id := post(t, ts, `{"escrows": 3, "payments": 2000000, "rate": 5000, "stream": true, "crypto": "hmac"}`)

	resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(`{"payments": 10}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated POST = %d, want 429: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After header")
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	scrape := string(body)
	for _, want := range []string{
		"xchain_serve_runs_accepted_total 1",
		"xchain_serve_runs_rejected_total 1",
		"xchain_serve_runs_active 1",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q:\n%s", want, firstLines(scrape, 40))
		}
	}

	if !srv.drain() {
		t.Fatal("drain timed out")
	}
	v := waitDone(t, ts, id)
	if v["status"] != "interrupted" {
		t.Errorf("drained run status %v, want interrupted", v["status"])
	}

	resp, err = http.Post(ts.URL+"/runs", "application/json", strings.NewReader(`{"payments": 10}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST while draining = %d, want 503", resp.StatusCode)
	}
}

// TestServeCheckpointRecovery is the crash-recovery path end to end: a
// persisted run is interrupted mid-flight by drain (leaving request +
// checkpoint, no completion marker), a second server over the same state
// dir re-adopts it under its original ID, resumes from the checkpoint and
// finishes with exactly the summary an uninterrupted run produces.
func TestServeCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := serverOptions{stateDir: dir, ckptEvery: 250, maxRuns: 2, drainTimeout: 30 * time.Second}

	srv1 := newServerWith(opts)
	if err := srv1.recover(); err != nil {
		t.Fatalf("recover over empty dir: %v", err)
	}
	ts1 := httptest.NewServer(srv1)
	body := `{"escrows": 3, "payments": 10000, "rate": 3000, "stream": true, "crypto": "hmac", "mix": "timelock=0.5,htlc=0.5"}`
	id := post(t, ts1, body)

	// Wait for a periodic checkpoint, then pull the plug mid-run.
	ckpt := filepath.Join(dir, id+".ckpt")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if sn, err := traffic.LoadSnapshot(ckpt); err == nil && sn.NextIndex > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no periodic checkpoint appeared")
		}
		time.Sleep(time.Millisecond)
	}
	if !srv1.drain() {
		t.Fatal("drain timed out")
	}
	v := waitDone(t, ts1, id)
	ts1.Close()
	interrupted := v["status"] == "interrupted"

	if _, err := os.Stat(filepath.Join(dir, id+".req.json")); err != nil {
		t.Fatalf("request not persisted: %v", err)
	}
	if interrupted {
		if _, err := os.Stat(ckpt); err != nil {
			t.Fatalf("interrupted run left no checkpoint: %v", err)
		}
		if _, err := os.Stat(filepath.Join(dir, id+".done.json")); err == nil {
			t.Fatal("interrupted run has a completion marker")
		}
	}

	srv2 := newServerWith(opts)
	if err := srv2.recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	v2 := waitDone(t, ts2, id)
	if v2["status"] != "done" {
		t.Fatalf("recovered run ended %v: %v", v2["status"], v2["error"])
	}
	result := v2["result"].(map[string]any)
	if result["total"] != float64(10000) || result["audit_ok"] != true || result["pending_locks"] != float64(0) {
		t.Fatalf("recovered run result wrong: %v", result)
	}

	// Byte-identical to the uninterrupted run: determinism makes the
	// checkpoint-resume invisible in the Result.
	req, err := traffic.DecodeRequest(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	scn, wl, cfg, err := prepare(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := traffic.RunWith(scn, wl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v2["summary"] != res.String() {
		t.Errorf("recovered summary differs from direct run:\n%v\n--\n%s", v2["summary"], res)
	}

	// The run is retired on disk and its ID is never reissued.
	if _, err := os.Stat(filepath.Join(dir, id+".done.json")); err != nil {
		t.Fatalf("finished run has no completion marker: %v", err)
	}
	if _, err := os.Stat(ckpt); err == nil {
		t.Error("retired run still has a checkpoint")
	}
	id2 := post(t, ts2, `{"payments": 10, "crypto": "hmac"}`)
	if id2 == id {
		t.Fatalf("run ID %s reissued after recovery", id2)
	}
	if v := waitDone(t, ts2, id2); v["status"] != "done" {
		t.Fatalf("follow-up run ended %v", v["status"])
	}

	// A third server sees only retired work: nothing to re-adopt.
	srv3 := newServerWith(opts)
	if err := srv3.recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	srv3.mu.Lock()
	adopted := len(srv3.runs)
	srv3.mu.Unlock()
	if adopted != 0 {
		t.Errorf("third server adopted %d retired runs", adopted)
	}
}

// TestServeSurvivesUnwritableStateDir: a state dir that stops taking writes
// after a run was accepted (read-only remount, disk full, removed) costs the
// run its periodic checkpoints, not its result. The run is driven through
// execute directly so that every periodic write fails deterministically; it
// must end "done" — it used to end "failed", as if a deterministic result
// would fail again — with the skipped writes counted under its run label.
func TestServeSurvivesUnwritableStateDir(t *testing.T) {
	srv := newServerWith(serverOptions{stateDir: filepath.Join(t.TempDir(), "gone"), ckptEvery: 100, maxRuns: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := traffic.DefaultRequest()
	req.Escrows, req.Payments, req.Rate, req.Crypto = 2, 450, 2000, "hmac"
	scn, wl, cfg, err := prepare(req)
	if err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	ru := srv.register("run-0001", req)
	srv.mu.Unlock()
	srv.execute(ru, scn, wl, srv.runConfig(ru, cfg))

	var v map[string]any
	if code := get(t, ts, "/runs/run-0001", &v); code != http.StatusOK || v["status"] != "done" {
		t.Fatalf("GET /runs/run-0001 = %d, status %v (%v), want done", code, v["status"], v["error"])
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if want := traffic.MetricCheckpointWriteErrors + `{run="run-0001"} 4`; !strings.Contains(string(raw), want) {
		t.Errorf("/metrics lacks %q (payments 100..400)", want)
	}
}

// TestServeRejectsOversizedRun is the regression test for a request that
// killed the server: {"payments": 1099511627776} was accepted (202, and
// persisted under -state-dir), then the run's per-payment table exhausted
// memory — unrecoverably, and again on every restart. Sizes are bounded
// before anything is registered or persisted, and a persisted request that
// no longer passes is retired as failed rather than executed.
func TestServeRejectsOversizedRun(t *testing.T) {
	dir := t.TempDir()
	opts := serverOptions{stateDir: dir, maxRuns: 2}
	srv := newServerWith(opts)
	if err := srv.recover(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, body := range []string{
		`{"escrows":2,"payments":1099511627776,"crypto":"hmac"}`,
		fmt.Sprintf(`{"payments":%d}`, maxKeepPayments+1),
		fmt.Sprintf(`{"payments":%d,"stream":true}`, maxStreamPayments+1),
		`{"payments":-5}`,
		fmt.Sprintf(`{"escrows":%d,"payments":10}`, maxEscrows+1),
		`{"escrows":-1,"payments":10}`,
		// Overflowed the generator's uniform draw and panicked a worker.
		`{"payments":10,"amount_dist":"uniform","spread":4611686018427387904}`,
	} {
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var v map[string]string
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || v["error"] == "" {
			t.Errorf("POST %s = %d %v (decode: %v), want 400 with a JSON error", body, resp.StatusCode, v, err)
		}
	}
	var list struct {
		Runs []map[string]any `json:"runs"`
	}
	if get(t, ts, "/runs", &list); len(list.Runs) != 0 {
		t.Errorf("%d runs registered by rejected requests", len(list.Runs))
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 0 {
		t.Errorf("rejected requests left state behind: %v", files)
	}
	if code := get(t, ts, "/healthz", nil); code != http.StatusOK {
		t.Errorf("/healthz = %d after the rejections", code)
	}
	// The larger ceiling is for aggregate-only runs (checked without running
	// a million payments).
	big := traffic.DefaultRequest()
	big.Payments, big.Stream = maxKeepPayments+1, true
	if _, _, _, err := prepare(big); err != nil {
		t.Errorf("aggregate-only request over the keep-mode ceiling rejected: %v", err)
	}

	// What an earlier build accepted and persisted is not run on restart.
	planted := filepath.Join(dir, "run-0007.req.json")
	if err := os.WriteFile(planted, []byte(`{"escrows":2,"payments":1099511627776,"crypto":"hmac"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	srv2 := newServerWith(opts)
	if err := srv2.recover(); err != nil {
		t.Fatalf("recover over an oversized request: %v", err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	v := waitDone(t, ts2, "run-0007")
	if v["status"] != "failed" || !strings.Contains(fmt.Sprint(v["error"]), "payments") {
		t.Fatalf("oversized persisted request ended %v: %v", v["status"], v["error"])
	}
	if p := v["progress"].(map[string]any); p["generated"] != float64(0) {
		t.Errorf("oversized persisted request ran: %v", p)
	}
	if _, err := os.Stat(filepath.Join(dir, "run-0007.done.json")); err != nil {
		t.Errorf("oversized persisted request not retired: %v", err)
	}
	srv2.mu.Lock()
	active := srv2.active
	srv2.mu.Unlock()
	if active != 0 {
		t.Errorf("retired request still holds %d execution slots", active)
	}
	id := post(t, ts2, `{"payments": 10, "crypto": "hmac"}`)
	if id != "run-0008" {
		t.Errorf("run after the retired request got ID %s, want run-0008", id)
	}
	waitDone(t, ts2, id)
}

// TestServeRecoversFromMalformedCheckpoint plants a checkpoint whose
// envelope checksum holds but whose content the run could not have written
// (a flight routed outside the chain — it used to panic the run goroutine,
// and with it the process). Recovery must treat it like a torn file: redo
// the run from scratch, to the same summary.
func TestServeRecoversFromMalformedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	body := `{"escrows": 3, "payments": 600, "rate": 3000, "stream": true, "crypto": "hmac"}`
	req, err := traffic.DecodeRequest(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	scn, wl, cfg, err := prepare(req)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := traffic.RunWith(scn, wl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "run-0001.ckpt")
	icfg := cfg
	icfg.InterruptAt, icfg.CheckpointPath = 300, ckpt
	if _, err := traffic.RunWith(scn, wl, icfg); !errors.Is(err, traffic.ErrInterrupted) {
		t.Fatalf("interrupted run returned %v", err)
	}
	sn, err := traffic.LoadSnapshot(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(sn.Flights) == 0 {
		t.Fatal("snapshot caught no payment in flight")
	}
	sn.Flights[0].Sender = 40
	payload, err := json.Marshal(sn)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.Save(ckpt, traffic.SnapshotKind, sn.ConfigHash, payload); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "run-0001.req.json"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}

	srv := newServerWith(serverOptions{stateDir: dir, ckptEvery: 250, maxRuns: 2})
	if err := srv.recover(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	v := waitDone(t, ts, "run-0001")
	if v["status"] != "done" || v["summary"] != ref.String() {
		t.Fatalf("run over a malformed checkpoint ended %v (%v):\n%v\n-- want --\n%s", v["status"], v["error"], v["summary"], ref)
	}
}

// TestServeRedoesForeignCheckpoint plants, under a run's ID, the checkpoint
// of another request (another seed). The request file is authoritative and a
// redo is identical, so recovery must run the request from scratch to its
// own summary; it used to retire the run as failed on the config mismatch.
func TestServeRedoesForeignCheckpoint(t *testing.T) {
	dir := t.TempDir()
	body := `{"escrows": 3, "payments": 600, "rate": 3000, "stream": true, "crypto": "hmac"}`
	build := func(body string) (core.Scenario, traffic.Workload, traffic.Config) {
		req, err := traffic.DecodeRequest(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		scn, wl, cfg, err := prepare(req)
		if err != nil {
			t.Fatal(err)
		}
		return scn, wl, cfg
	}
	ref, err := traffic.RunWith(build(body))
	if err != nil {
		t.Fatal(err)
	}
	scn, wl, cfg := build(`{"escrows": 3, "payments": 600, "rate": 3000, "stream": true, "crypto": "hmac", "seed": 7}`)
	cfg.InterruptAt, cfg.CheckpointPath = 300, filepath.Join(dir, "run-0001.ckpt")
	if _, err := traffic.RunWith(scn, wl, cfg); !errors.Is(err, traffic.ErrInterrupted) {
		t.Fatalf("interrupted run returned %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "run-0001.req.json"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}

	srv := newServerWith(serverOptions{stateDir: dir, ckptEvery: 250, maxRuns: 2})
	if err := srv.recover(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if v := waitDone(t, ts, "run-0001"); v["status"] != "done" || v["summary"] != ref.String() {
		t.Fatalf("run over a foreign checkpoint ended %v (%v):\n%v\n-- want --\n%s", v["status"], v["error"], v["summary"], ref)
	}
}

// TestServeSummaryIsTheCLIs posts the requests of xchain-traffic's
// testdata/request-summaries.json, each beside the summary the CLI prints for
// it as arguments (its TestSummaryIsServes), and answers the same summary
// byte for byte.
func TestServeSummaryIsTheCLIs(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "xchain-traffic", "testdata", "request-summaries.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Body    json.RawMessage
		Summary string
	}
	if err := json.Unmarshal(raw, &cases); err != nil || len(cases) != 3 {
		t.Fatalf("%d requests in the file (%v), want 3", len(cases), err)
	}
	ts := httptest.NewServer(newServerWith(serverOptions{maxRuns: 1}))
	defer ts.Close()
	for _, c := range cases {
		if v := waitDone(t, ts, post(t, ts, string(c.Body))); v["status"] != "done" || v["summary"] != c.Summary {
			t.Errorf("%s ended %v:\n%v\n-- want --\n%s", c.Body, v["status"], v["summary"], c.Summary)
		}
	}
}

func firstLines(s string, n int) string {
	lines := strings.Split(s, "\n")
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

func parseFloat(s string) (float64, error) {
	var f float64
	_, err := fmt.Sscanf(s, "%g", &f)
	return f, err
}
