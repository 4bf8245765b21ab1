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
	"strings"
	"syscall"
	"time"
)

func main() {
	addr, opts, err := parse(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "xchain-serve: %v\n", err)
		os.Exit(2)
	}
	srv := newServerWith(opts)
	if err := srv.recover(); err != nil {
		fmt.Fprintf(os.Stderr, "xchain-serve: recovery failed: %v\n", err)
		os.Exit(1)
	}

	hs := newHTTPServer(addr, srv)
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "xchain-serve: listening on %s (max-runs=%d)\n", addr, srv.opts.maxRuns)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "xchain-serve: %v\n", err)
		os.Exit(1)
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "xchain-serve: %v: draining (deadline %s)\n", sig, opts.drainTimeout)
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

// parse reads the command line (a bad flag or -h exits) into the listen
// address and the server's options. A negative -checkpoint-every, -max-runs
// or -drain is refused before anything listens.
func parse(args []string) (string, serverOptions, error) {
	fs := flag.NewFlagSet("xchain-serve", flag.ExitOnError)
	var opts serverOptions
	addr := fs.String("addr", ":8080", "listen address")
	fs.BoolVar(&opts.withPprof, "pprof", false, "serve net/http/pprof under /debug/pprof/")
	fs.StringVar(&opts.stateDir, "state-dir", "", "persist runs here for crash recovery (empty = no persistence)")
	fs.IntVar(&opts.ckptEvery, "checkpoint-every", 20000, "checkpoint cadence in admitted payments (with -state-dir)")
	fs.IntVar(&opts.maxRuns, "max-runs", 0, "concurrently executing runs before 429 (0 = one per CPU)")
	fs.DurationVar(&opts.drainTimeout, "drain", 20*time.Second, "graceful-shutdown deadline for in-flight runs")
	_ = fs.Parse(args) // ExitOnError: it returns only on success
	for _, name := range []string{"checkpoint-every", "max-runs", "drain"} {
		if v := fs.Lookup(name).Value.String(); strings.HasPrefix(v, "-") {
			return "", opts, fmt.Errorf("-%s: need 0 or more, got %s", name, v)
		}
	}
	return *addr, opts, nil
}
