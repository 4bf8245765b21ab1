package main

import (
	"io"
	"strings"
	"testing"
)

// FuzzXchainArgs is xchain's argv, fuzzed (arguments NUL-separated): any
// argument list exits 0, 1 or 2 without a panic, and an exit 2 names a flag
// on its first line. Every accepted input runs: one payment on at most
// core.MaxChain escrows in simulated time. Seeded from TestRunBadFlags and
// from valid runs of every protocol and network.
func FuzzXchainArgs(f *testing.F) {
	for _, args := range [][]string{
		{"-protocol", "bogus"}, {"-network", "bogus"}, {"-network", "partial", "-gst", "-1s"}, {"-patience", "-5s"},
		{"-fault", "nonsense"}, {"-fault", "c1=sillent"}, {"-fault", "c9=silent"}, {"-fault", "notaryX=silent"},
		{"-n", "0"}, {"-n", "65"}, {"-protocol", "weaklive-committee", "-committee", "0"}, {"-no-such-flag"}, {"-h"},
		{"-n", "2", "-seed", "1"}, {"-n", "3", "-protocol", "timelock-anta", "-fault", "c3=withhold", "-trace"},
		{"-n", "2", "-protocol", "weaklive", "-fault", "manager=equivocate"},
		{"-n", "2", "-protocol", "weaklive-committee", "-network", "partial", "-gst", "9s", "-seed", "11", "-patience", "300ms"},
		{"-n", "4", "-protocol", "htlc", "-fault", "c2=silent"}, {"-protocol", "timelock-naive", "-patience", "0s"},
	} {
		f.Add(strings.Join(args, "\x00"))
	}
	// The flags xchain defines, as its usage lists them.
	var usage strings.Builder
	run([]string{"-h"}, io.Discard, &usage)
	var flags []string
	for _, line := range strings.Split(usage.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			name, _, _ = strings.Cut(name, " ")
			flags = append(flags, "-"+name)
		}
	}
	if len(flags) == 0 {
		f.Fatalf("no flags in the usage:\n%s", usage.String())
	}
	f.Fuzz(func(t *testing.T, joined string) {
		args := strings.Split(joined, "\x00")
		var out, errOut strings.Builder
		switch code := run(args, &out, &errOut); code {
		case 0, 1:
		case 2:
			first, _, _ := strings.Cut(errOut.String(), "\n")
			named := false
			for _, flag := range flags {
				named = named || strings.Contains(first, flag+":") || strings.Contains(first, flag+" ")
			}
			// The flag package's own complaints name the argument they reject.
			if !named && !strings.Contains(errOut.String(), "Usage of xchain") {
				t.Fatalf("exit 2 names no flag: %q", errOut.String())
			}
		default:
			t.Fatalf("exit %d: %s", code, errOut.String())
		}
	})
}
