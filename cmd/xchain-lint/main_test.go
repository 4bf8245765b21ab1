package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListDescribesSuite(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, stderr.String())
	}
	for _, name := range []string{"wallclock", "maprange", "globalrand", "hotalloc", "hotcopy", "hotshared", "nilsafe"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, stdout.String())
		}
	}
}

func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "nosuch", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.HasPrefix(stderr.String(), `xchain-lint: -only: unknown analyzer "nosuch"`) {
		t.Errorf("stderr does not name the flag and the analyzer: %s", stderr.String())
	}
}

func TestBadFlagIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// writeModule lays out a throwaway module named repro so fixture files land
// on deterministic import paths.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module repro\n\ngo 1.24\n"
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestFindingsExitOne(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list; skipped in -short")
	}
	dir := writeModule(t, map[string]string{
		"internal/sim/sim.go": `package sim

import "time"

func Boot() time.Time { return time.Now() }
`,
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dir, "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stdout: %s stderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "wallclock: time.Now depends on the wall clock") {
		t.Errorf("stdout missing wallclock finding:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "1 finding(s)") {
		t.Errorf("stderr missing summary: %s", stderr.String())
	}
}

func TestCleanModuleExitZero(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list; skipped in -short")
	}
	dir := writeModule(t, map[string]string{
		"internal/sim/sim.go": `package sim

func Step(n int) int { return n + 1 }
`,
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dir, "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, want 0; stdout: %s stderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "clean") {
		t.Errorf("stderr missing clean summary: %s", stderr.String())
	}
}

func TestOnlySubsetSkipsOtherAnalyzers(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list; skipped in -short")
	}
	dir := writeModule(t, map[string]string{
		"internal/sim/sim.go": `package sim

import "time"

func Boot() time.Time { return time.Now() }
`,
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-only", "maprange", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0 (wallclock disabled); stdout: %s stderr: %s", code, stdout.String(), stderr.String())
	}
}
