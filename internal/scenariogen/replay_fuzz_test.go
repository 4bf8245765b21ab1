package scenariogen

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplayFile is the `xchain-fuzz -replay` boundary, fuzzed: whatever
// bytes a replay file holds, loading it answers with a Replay or an error,
// and verifying a loaded Replay answers with a verdict — never a panic,
// never a run whose size the file chose freely. Seeded from the committed
// corpus.
func FuzzReplayFile(f *testing.F) {
	corpus, err := filepath.Glob("testdata/*.json")
	if err != nil || len(corpus) == 0 {
		f.Fatalf("no replay corpus (%v)", err)
	}
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	path := filepath.Join(f.TempDir(), "fuzz.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := LoadReplay(path)
		if err != nil {
			return
		}
		_ = r.Verify() // diverging from the expectation is a verdict, not a failure
	})
}
