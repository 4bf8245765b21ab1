package main

import (
	"strings"
	"testing"
	"time"
)

func TestParseDefaults(t *testing.T) {
	addr, opts, err := parse([]string{"-addr", "127.0.0.1:0", "-state-dir", "d", "-max-runs", "3"})
	if err != nil {
		t.Fatal(err)
	}
	want := serverOptions{stateDir: "d", ckptEvery: 20000, maxRuns: 3, drainTimeout: 20 * time.Second}
	if addr != "127.0.0.1:0" || opts != want {
		t.Errorf("parsed %q %+v, want %+v", addr, opts, want)
	}
}

// A negative -checkpoint-every used to persist each accepted run's request
// and then fail the run, a negative -max-runs to mean NumCPU and a negative
// -drain a deadline already past: each is refused before the server listens,
// naming its flag.
func TestParseRefusesNegatives(t *testing.T) {
	for _, args := range [][]string{
		{"-state-dir", "d", "-checkpoint-every", "-5"},
		{"-max-runs", "-3"},
		{"-drain", "-1s"},
	} {
		flagName := args[len(args)-2]
		if _, _, err := parse(args); err == nil || !strings.HasPrefix(err.Error(), flagName+": ") {
			t.Errorf("%v: %v, want a refusal naming %s", args, err, flagName)
		}
	}
}
