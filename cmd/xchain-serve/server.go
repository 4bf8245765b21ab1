package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// run is one traffic run owned by the server.
type run struct {
	ID      string
	Req     traffic.Request
	Reg     *metrics.Registry
	Started time.Time
	Ctl     *traffic.Control

	mu       sync.Mutex
	status   string // "running", "done", "failed", "interrupted"
	errMsg   string
	summary  string
	result   *runSummary
	finished time.Time
}

// runSummary is the JSON rendering of a finished run's Result.
type runSummary struct {
	Total        int     `json:"total"`
	Succeeded    int     `json:"succeeded"`
	Failed       int     `json:"failed"`
	Rejected     int     `json:"rejected"`
	Dropped      int     `json:"dropped"`
	Errored      int     `json:"errored"`
	SuccessRate  float64 `json:"success_rate"`
	Throughput   float64 `json:"throughput_per_s"`
	MakespanMs   float64 `json:"makespan_ms"`
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
	VolumeMoved  int64   `json:"volume_moved"`
	PeakInFlight int     `json:"peak_in_flight"`
	AuditOK      bool    `json:"audit_ok"`
	PendingLocks int     `json:"pending_locks"`

	// Byzantine/oracle fields: what the fault plan did and what the
	// aggregate safety oracle observed.
	ByzantineConnectors int      `json:"byzantine_connectors"`
	FaultedPayments     int      `json:"faulted_payments"`
	DroppedFaulted      int      `json:"dropped_faulted"`
	DroppedCapacity     int      `json:"dropped_capacity"`
	PeakByzantineHeld   int64    `json:"peak_byzantine_held"`
	SafetyViolations    int      `json:"safety_violations"`
	SafetySample        []string `json:"safety_sample,omitempty"`
	CascadeOK           bool     `json:"cascade_ok"`
}

// progress is the live part of a run's JSON view, read from its registry.
type progress struct {
	Generated  uint64  `json:"generated"`
	Simulated  uint64  `json:"simulated"`
	Settled    uint64  `json:"settled"`
	Failed     uint64  `json:"failed"`
	Rejected   uint64  `json:"rejected"`
	Expired    uint64  `json:"expired"`
	Errored    uint64  `json:"errored"`
	QueueDepth float64 `json:"queue_depth"`
	InFlight   float64 `json:"in_flight"`
	P50Ms      float64 `json:"latency_p50_ms"`
	P99Ms      float64 `json:"latency_p99_ms"`
	VirtualMs  float64 `json:"virtual_time_ms"`
}

func (r *run) progress() progress {
	m := traffic.NewRunMetrics(r.Reg)
	return progress{
		Generated:  m.Generated.Value(),
		Simulated:  m.Simulated.Value(),
		Settled:    m.Settled.Value(),
		Failed:     m.Failed.Value(),
		Rejected:   m.Rejected.Value(),
		Expired:    m.Expired.Value(),
		Errored:    m.Errored.Value(),
		QueueDepth: m.QueueDepth.Value(),
		InFlight:   m.InFlight.Value(),
		P50Ms:      m.Latency.Quantile(0.5),
		P99Ms:      m.Latency.Quantile(0.99),
		VirtualMs:  r.Reg.Gauge(sim.MetricVirtualTimeMs, "").Value(),
	}
}

// serverOptions tunes the hardened surface: run persistence, checkpoint
// cadence, admission control and the drain deadline. The zero value is the
// original observation-only server (no state dir, NumCPU concurrent runs).
type serverOptions struct {
	withPprof bool
	// stateDir, when non-empty, makes accepted runs durable: the request is
	// persisted before the 202 goes out, the run checkpoints to
	// <id>.ckpt every ckptEvery payments, and a completion marker
	// <id>.done.json retires it. A restarted server re-adopts runs that
	// have a request but no marker, under their original IDs.
	stateDir  string
	ckptEvery int
	// maxRuns bounds concurrently executing runs; excess POSTs get 429 with
	// Retry-After rather than queueing unboundedly. <=0 means NumCPU.
	maxRuns int
	// drainTimeout bounds how long drain waits for interrupted runs to
	// reach a payment boundary and write their final checkpoint.
	drainTimeout time.Duration
}

// server owns the run table and the base (process-wide) registry.
type server struct {
	mux      *http.ServeMux
	base     *metrics.Registry
	opts     serverOptions
	accepted *metrics.Counter
	rejected *metrics.Counter

	mu       sync.Mutex
	runs     map[string]*run
	order    []string // creation order
	next     int
	active   int
	draining bool
	wg       sync.WaitGroup // one per executing run goroutine
}

// newServer builds the plain HTTP surface (tests and the zero-config path).
func newServer(withPprof bool) *server {
	return newServerWith(serverOptions{withPprof: withPprof})
}

// newServerWith builds the HTTP surface. The base registry carries
// process-wide families (the sig crypto caches and the server's own run and
// admission counters); each run gets its own registry labelled run="<id>" so
// scrapes tell runs apart.
func newServerWith(opts serverOptions) *server {
	if opts.maxRuns <= 0 {
		opts.maxRuns = runtime.NumCPU()
	}
	s := &server{
		mux:  http.NewServeMux(),
		base: metrics.NewRegistry(),
		opts: opts,
		runs: map[string]*run{},
	}
	sig.RegisterMetrics(s.base)
	s.base.GaugeFunc("xchain_serve_runs", "Traffic runs owned by this server.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.runs))
	})
	s.accepted = s.base.Counter("xchain_serve_runs_accepted_total", "Run requests accepted (202).")
	s.rejected = s.base.Counter("xchain_serve_runs_rejected_total", "Run requests rejected for saturation (429) or drain (503).")
	s.base.GaugeFunc("xchain_serve_runs_active", "Traffic runs currently executing.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.active)
	})

	s.mux.HandleFunc("POST /runs", s.handleStartRun)
	s.mux.HandleFunc("GET /runs", s.handleListRuns)
	s.mux.HandleFunc("GET /runs/{id}", s.handleGetRun)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	if opts.withPprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best effort once headers are out
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxRequestBody bounds a POST /runs body. A run request is a few hundred
// bytes of JSON; the bound only exists so that a client cannot make the
// server buffer an arbitrary amount before the decoder rejects it.
const maxRequestBody = 1 << 20

// Connection deadlines of the HTTP server: how long a client may take to
// send its request headers, its whole request, and how long an idle
// keep-alive connection is kept. Responses carry no write deadline — a
// /debug/pprof/profile response legitimately takes its ?seconds to produce.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the http.Server xchain-serve listens with: handler h
// behind the connection deadlines above, so a slow or stalled client cannot
// hold a connection (and its goroutine) open indefinitely.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// handleStartRun validates the request, registers the run and launches it.
func (s *server) handleStartRun(w http.ResponseWriter, r *http.Request) {
	req, err := traffic.DecodeRequest(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	// Validate before accepting: a rejected request should 400 now, before
	// it is registered or persisted, not fail (or exhaust memory)
	// asynchronously.
	scn, wl, cfg, err := req.Build()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.rejected.Inc()
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining, not accepting runs")
		return
	}
	if s.active >= s.opts.maxRuns {
		s.rejected.Inc()
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "run capacity saturated (%d active); retry later", s.opts.maxRuns)
		return
	}
	s.next++
	id := fmt.Sprintf("run-%04d", s.next)
	ru := s.register(id, req)
	s.mu.Unlock()

	// Persist the request before the 202 goes out: an accepted run must
	// survive a crash of this process.
	if s.opts.stateDir != "" {
		if err := s.persistRequest(ru); err != nil {
			s.mu.Lock()
			s.active--
			delete(s.runs, id)
			s.order = s.order[:len(s.order)-1]
			s.mu.Unlock()
			s.wg.Done()
			writeError(w, http.StatusInternalServerError, "cannot persist run: %v", err)
			return
		}
	}
	s.accepted.Inc()
	go s.execute(ru, scn, wl, s.runConfig(ru, cfg))

	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":      id,
		"status":  "running",
		"run":     "/runs/" + id,
		"metrics": "/metrics",
	})
}

// register creates the run's table entry. Callers hold s.mu. The matching
// wg.Done/active-- happens when execute returns (or on persist failure).
func (s *server) register(id string, req traffic.Request) *run {
	ru := &run{
		ID:      id,
		Req:     req,
		Reg:     metrics.NewLabeledRegistry("run", id),
		Started: time.Now(),
		Ctl:     &traffic.Control{},
		status:  "running",
	}
	s.runs[id] = ru
	s.order = append(s.order, id)
	s.active++
	s.wg.Add(1)
	return ru
}

// runConfig attaches the server-owned execution knobs: the live registry,
// the interrupt control, and (with a state dir) the checkpoint file.
func (s *server) runConfig(ru *run, cfg traffic.Config) traffic.Config {
	cfg.Metrics = ru.Reg
	cfg.Control = ru.Ctl
	if s.opts.stateDir != "" {
		cfg.CheckpointPath = s.ckptPath(ru.ID)
		cfg.CheckpointEvery = s.opts.ckptEvery
	}
	return cfg
}

func (s *server) reqPath(id string) string  { return filepath.Join(s.opts.stateDir, id+".req.json") }
func (s *server) ckptPath(id string) string { return filepath.Join(s.opts.stateDir, id+".ckpt") }
func (s *server) donePath(id string) string { return filepath.Join(s.opts.stateDir, id+".done.json") }

func (s *server) persistRequest(ru *run) error {
	raw, err := json.MarshalIndent(ru.Req, "", "  ")
	if err != nil {
		return err
	}
	return checkpoint.WriteFileAtomic(s.reqPath(ru.ID), raw)
}

// execute runs the traffic engine to completion (or interruption) and
// records the outcome. With a state dir, a finished run gets a durable
// completion marker and its checkpoint retired; an interrupted run keeps
// both files so a restarted server resumes it under the same ID.
func (s *server) execute(ru *run, scn core.Scenario, wl traffic.Workload, cfg traffic.Config) {
	defer s.release()
	res, err := traffic.RunWith(scn, wl, cfg)
	var mismatch *traffic.ConfigMismatchError
	if cfg.Resume != nil && (errors.Is(err, traffic.ErrBadSnapshot) || errors.As(err, &mismatch)) {
		// A checkpoint whose checksum holds but whose content this run could
		// not have written is as unusable as a torn one, and so is one taken
		// under another configuration: the request file is authoritative.
		// RunWith refused it before restoring anything, so redo the whole
		// workload.
		fmt.Fprintf(os.Stderr, "xchain-serve: %s: ignoring unusable checkpoint: %v\n", ru.ID, err)
		cfg.Resume = nil
		res, err = traffic.RunWith(scn, wl, cfg)
	}
	ru.mu.Lock()
	defer ru.mu.Unlock()
	ru.finished = time.Now()
	switch {
	case errors.Is(err, traffic.ErrInterrupted):
		ru.status = "interrupted"
		ru.errMsg = "interrupted by shutdown; checkpointed for restart recovery"
		return
	case err != nil:
		ru.status = "failed"
		ru.errMsg = err.Error()
	default:
		ru.status = "done"
		ru.summary = res.String()
		ru.result = summarize(res)
	}
	if s.opts.stateDir != "" {
		s.retire(ru)
	}
}

// release gives back the execution slot register took.
func (s *server) release() {
	s.mu.Lock()
	s.active--
	s.mu.Unlock()
	s.wg.Done()
}

// fail finishes a registered run that never executes: recorded as failed,
// retired on disk, its execution slot released.
func (s *server) fail(ru *run, err error) {
	defer s.release()
	ru.mu.Lock()
	defer ru.mu.Unlock()
	ru.status, ru.errMsg, ru.finished = "failed", err.Error(), time.Now()
	s.retire(ru)
}

// retire marks a run complete on disk (done or failed — both are final:
// results are deterministic, so a failed run would fail again) and removes
// its now-redundant checkpoint. Callers hold ru.mu.
func (s *server) retire(ru *run) {
	marker := map[string]any{"status": ru.status}
	if ru.errMsg != "" {
		marker["error"] = ru.errMsg
	}
	if ru.result != nil {
		marker["result"] = ru.result
		marker["summary"] = ru.summary
	}
	raw, err := json.MarshalIndent(marker, "", "  ")
	if err == nil {
		err = checkpoint.WriteFileAtomic(s.donePath(ru.ID), raw)
	}
	if err != nil {
		// The run stays resumable; recovery will redo the tail and
		// rewrite the marker.
		fmt.Fprintf(os.Stderr, "xchain-serve: cannot retire %s: %v\n", ru.ID, err)
		return
	}
	os.Remove(s.ckptPath(ru.ID)) //nolint:errcheck // stale ckpt is harmless
}

// summarize renders a finished Result for the JSON API.
func summarize(res *traffic.Result) *runSummary {
	return &runSummary{
		Total:        res.Total,
		Succeeded:    res.Succeeded,
		Failed:       res.Failed,
		Rejected:     res.Rejected,
		Dropped:      res.Dropped,
		Errored:      res.Errored,
		SuccessRate:  res.SuccessRate,
		Throughput:   res.Throughput,
		MakespanMs:   res.Makespan.Millis(),
		LatencyP50Ms: res.LatencyP50Ms,
		LatencyP99Ms: res.LatencyP99Ms,
		VolumeMoved:  res.VolumeMoved,
		PeakInFlight: res.PeakInFlight,
		AuditOK:      res.AuditErr == nil,
		PendingLocks: res.PendingLocks,

		ByzantineConnectors: res.ByzantineConnectors,
		FaultedPayments:     res.FaultedPayments,
		DroppedFaulted:      res.DroppedFaulted,
		DroppedCapacity:     res.DroppedCapacity,
		PeakByzantineHeld:   res.PeakByzantineHeld,
		SafetyViolations:    res.SafetyViolations,
		SafetySample:        res.SafetySample,
		CascadeOK:           res.CascadeErr == nil,
	}
}

// recover re-adopts persisted runs from the state dir: every <id>.req.json
// without a completion marker is re-registered under its original ID and
// resumed from its checkpoint (or restarted from scratch when none was
// written, or it no longer fits the request — determinism makes the redo
// byte-identical). A request that no
// longer passes Build (written by a build with looser bounds, or edited)
// is retired as failed, never executed. Completed runs only advance the ID
// counter so new runs never collide with retired ones.
func (s *server) recover() error {
	if s.opts.stateDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.opts.stateDir, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(s.opts.stateDir)
	if err != nil {
		return err
	}
	var ids []string
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".req.json") {
			ids = append(ids, strings.TrimSuffix(name, ".req.json"))
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		// Keep fresh IDs strictly above every persisted one, retired or not.
		var seq int
		if _, err := fmt.Sscanf(id, "run-%d", &seq); err == nil && seq > s.next {
			s.next = seq
		}
		if _, err := os.Stat(s.donePath(id)); err == nil {
			continue // retired
		}
		raw, err := os.ReadFile(s.reqPath(id))
		if err != nil {
			return fmt.Errorf("recover %s: %v", id, err)
		}
		req, err := traffic.DecodeRequest(bytes.NewReader(raw))
		if err != nil {
			return fmt.Errorf("recover %s: corrupt request: %v", id, err)
		}
		scn, wl, cfg, err := req.Build()
		s.mu.Lock()
		ru := s.register(id, req)
		s.mu.Unlock()
		if err != nil {
			fmt.Fprintf(os.Stderr, "xchain-serve: %s: retiring invalid persisted request: %v\n", id, err)
			s.fail(ru, err)
			continue
		}
		cfg = s.runConfig(ru, cfg)
		// A corrupt or torn checkpoint is rejected by its checksum; the run
		// then redoes the whole workload, which is safe (same Result).
		if sn, err := traffic.LoadSnapshot(s.ckptPath(id)); err == nil {
			cfg.Resume = sn
		} else if !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "xchain-serve: %s: ignoring unusable checkpoint: %v\n", id, err)
		}
		fmt.Fprintf(os.Stderr, "xchain-serve: recovering %s (resume at payment %d of %d)\n", id, resumeIndex(cfg.Resume), wl.Payments)
		go s.execute(ru, scn, wl, cfg)
	}
	return nil
}

func resumeIndex(sn *traffic.RunSnapshot) int {
	if sn == nil {
		return 0
	}
	return sn.NextIndex
}

// drain stops admission, interrupts every executing run (each writes a
// final checkpoint when configured) and waits up to the drain timeout for
// the run goroutines to settle. Idempotent; safe before Shutdown.
func (s *server) drain() bool {
	s.mu.Lock()
	s.draining = true
	for _, id := range s.order {
		s.runs[id].Ctl.Interrupt()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	timeout := s.opts.drainTimeout
	if timeout <= 0 {
		timeout = 20 * time.Second
	}
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// runView renders one run for the JSON API.
func (s *server) runView(ru *run) map[string]any {
	ru.mu.Lock()
	status, errMsg, summary, result, finished := ru.status, ru.errMsg, ru.summary, ru.result, ru.finished
	ru.mu.Unlock()
	v := map[string]any{
		"id":       ru.ID,
		"status":   status,
		"started":  ru.Started.UTC().Format(time.RFC3339Nano),
		"progress": ru.progress(),
	}
	if !finished.IsZero() {
		v["finished"] = finished.UTC().Format(time.RFC3339Nano)
		v["elapsed_ms"] = float64(finished.Sub(ru.Started)) / float64(time.Millisecond)
	}
	if errMsg != "" {
		v["error"] = errMsg
	}
	if result != nil {
		v["result"] = result
		v["summary"] = summary
	}
	return v
}

func (s *server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	ru, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such run %q", id)
		return
	}
	writeJSON(w, http.StatusOK, s.runView(ru))
}

func (s *server) handleListRuns(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ids := make([]string, len(s.order))
	copy(ids, s.order)
	s.mu.Unlock()
	sort.Sort(sort.Reverse(sort.StringSlice(ids))) // newest first: ids are zero-padded
	views := make([]map[string]any, 0, len(ids))
	for _, id := range ids {
		s.mu.Lock()
		ru := s.runs[id]
		s.mu.Unlock()
		views = append(views, s.runView(ru))
	}
	writeJSON(w, http.StatusOK, map[string]any{"runs": views})
}

// handleMetrics renders the merged Prometheus exposition: the base registry
// plus every run's labelled registry, families deduplicated under one
// HELP/TYPE header.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	regs := make([]*metrics.Registry, 0, len(s.order)+1)
	regs = append(regs, s.base)
	for _, id := range s.order {
		regs = append(regs, s.runs[id].Reg)
	}
	s.mu.Unlock()
	snaps := make([][]metrics.Family, len(regs))
	for i, reg := range regs {
		snaps[i] = reg.Snapshot()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metrics.WriteProm(w, snaps...) //nolint:errcheck // client gone mid-scrape
}
