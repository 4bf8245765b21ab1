// Command xchain-serve turns the traffic engine into a long-lived HTTP
// service: clients POST workload descriptions, runs execute asynchronously
// with a live per-run metrics registry, and one Prometheus-style /metrics
// endpoint exposes every run (labelled run="<id>") together with the
// process-wide crypto cache counters.
//
// Usage:
//
//	xchain-serve [flags]
//
//	-addr :8080        listen address
//	-pprof             also serve net/http/pprof under /debug/pprof/
//	-state-dir ""      persist accepted runs here: requests before the 202,
//	                   periodic checkpoints, completion markers. On restart
//	                   the server re-adopts incomplete runs under their
//	                   original IDs, resuming from the last checkpoint.
//	-checkpoint-every  checkpoint cadence in admitted payments (with
//	                   -state-dir; default 20000)
//	-max-runs 0        concurrently executing runs before POST /runs gets
//	                   429 + Retry-After (0 = one per CPU)
//	-drain 20s         graceful-shutdown deadline: how long SIGINT/SIGTERM
//	                   waits for in-flight runs to checkpoint and stop
//
// Endpoints:
//
//	POST /runs        start a traffic run (JSON body, see traffic.Request);
//	                  responds 202 with the run's id and links, 429 when
//	                  saturated, 503 while draining
//	GET  /runs        list runs, newest first
//	GET  /runs/{id}   one run's live progress (counters while running,
//	                  full summary once finished)
//	GET  /metrics     Prometheus text exposition of every run + sig family
//	GET  /healthz     liveness probe
//
// Instrumentation is observation-only (see internal/metrics): a run started
// here computes byte-for-byte the same Result the CLI computes for the same
// request, whether or not anyone scrapes it. The same determinism makes
// recovery exact: a run resumed from its checkpoint — or redone from
// scratch — produces the identical Result the uninterrupted run would have.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	withPprof := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	stateDir := flag.String("state-dir", "", "persist runs here for crash recovery (empty = no persistence)")
	ckptEvery := flag.Int("checkpoint-every", 20000, "checkpoint cadence in admitted payments (with -state-dir)")
	maxRuns := flag.Int("max-runs", 0, "concurrently executing runs before 429 (0 = one per CPU)")
	drain := flag.Duration("drain", 20*time.Second, "graceful-shutdown deadline for in-flight runs")
	flag.Parse()

	srv := newServerWith(serverOptions{
		withPprof:    *withPprof,
		stateDir:     *stateDir,
		ckptEvery:    *ckptEvery,
		maxRuns:      *maxRuns,
		drainTimeout: *drain,
	})
	if err := srv.recover(); err != nil {
		fmt.Fprintf(os.Stderr, "xchain-serve: recovery failed: %v\n", err)
		os.Exit(1)
	}

	hs := newHTTPServer(*addr, srv)
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "xchain-serve: listening on %s (max-runs=%d)\n", *addr, srv.opts.maxRuns)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "xchain-serve: %v\n", err)
		os.Exit(1)
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "xchain-serve: %v: draining (deadline %s)\n", sig, *drain)
	}

	// Stop admitting, interrupt in-flight runs (each writes its final
	// checkpoint), then close listeners and idle connections.
	clean := srv.drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "xchain-serve: shutdown: %v\n", err)
	}
	if !clean {
		fmt.Fprintf(os.Stderr, "xchain-serve: drain deadline exceeded; some runs may redo work on restart\n")
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "xchain-serve: drained cleanly\n")
}
