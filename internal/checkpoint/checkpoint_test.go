package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const (
	goldenKind = "test-payload"
	goldenHash = "cafe0123"
	goldenPath = "testdata/envelope-v1.golden"
)

var goldenPayload = []byte(`{"answer":42,"greeting":"hello"}`)

// TestGoldenEnvelope pins the on-disk format: the committed golden file must
// load verbatim, and re-encoding the same content must reproduce it byte for
// byte. Regenerate with XCHAIN_REGEN_GOLDEN=1 go test ./internal/checkpoint/
// after a deliberate format change (and bump Version when doing so).
func TestGoldenEnvelope(t *testing.T) {
	want, err := Encode(goldenKind, goldenHash, goldenPayload)
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("XCHAIN_REGEN_GOLDEN") == "1" {
		if err := os.WriteFile(goldenPath, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden file drifted from Encode output:\n got: %s\nwant: %s", got, want)
	}
	env, err := Load(goldenPath, goldenKind)
	if err != nil {
		t.Fatal(err)
	}
	if env.ConfigHash != goldenHash || !bytes.Equal(env.Payload, goldenPayload) {
		t.Fatalf("golden load mismatch: %+v", env)
	}
}

// TestSaveLoadRoundTrip exercises the atomic write path and a clean load.
func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, "kind-a", "h1", []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a second snapshot: the rename must replace atomically.
	if err := Save(path, "kind-a", "h1", []byte(`{"x":2}`)); err != nil {
		t.Fatal(err)
	}
	env, err := Load(path, "kind-a")
	if err != nil {
		t.Fatal(err)
	}
	if string(env.Payload) != `{"x":2}` {
		t.Fatalf("payload = %s, want {\"x\":2}", env.Payload)
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only the checkpoint", len(entries))
	}
}

// corrupt loads the golden file, applies edit to its decoded JSON object,
// and returns the re-serialised bytes — checksum deliberately NOT fixed up.
func corrupt(t *testing.T, edit func(map[string]any)) []byte {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal(data, &obj); err != nil {
		t.Fatal(err)
	}
	edit(obj)
	out, err := json.Marshal(obj)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRejects pins every rejection class against its typed sentinel:
// truncated, non-JSON, wrong format marker, wrong version, wrong kind,
// payload tampering, checksum tampering, missing file.
func TestRejects(t *testing.T) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		kind string
		want error
	}{
		{"truncated", golden[:len(golden)/2], goldenKind, ErrBadFormat},
		{"empty", nil, goldenKind, ErrBadFormat},
		{"not-json", []byte("definitely not a checkpoint"), goldenKind, ErrBadFormat},
		{"wrong-format-marker", corrupt(t, func(o map[string]any) { o["format"] = "other" }), goldenKind, ErrBadFormat},
		{"wrong-version", corrupt(t, func(o map[string]any) { o["version"] = Version + 1 }), goldenKind, ErrBadVersion},
		{"wrong-kind", golden, "other-kind", ErrBadKind},
		{"payload-tampered", corrupt(t, func(o map[string]any) { o["payload"] = map[string]any{"answer": 43} }), goldenKind, ErrBadChecksum},
		{"hash-tampered", corrupt(t, func(o map[string]any) { o["configHash"] = "beef" }), goldenKind, ErrBadChecksum},
		{"checksum-tampered", corrupt(t, func(o map[string]any) { o["checksum"] = "00" }), goldenKind, ErrBadChecksum},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.ckpt")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Load(path, tc.kind)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Load = %v, want errors.Is(..., %v)", err, tc.want)
			}
		})
	}

	if _, err := Load(filepath.Join(t.TempDir(), "absent.ckpt"), goldenKind); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: Load = %v, want os.ErrNotExist", err)
	}
}

// TestSaveUnwritableDir pins that Save reports failure (rather than
// panicking or truncating) when the destination directory does not exist.
func TestSaveUnwritableDir(t *testing.T) {
	err := Save(filepath.Join(t.TempDir(), "no-such-dir", "run.ckpt"), "k", "", []byte("{}"))
	if err == nil {
		t.Fatal("Save into a missing directory succeeded")
	}
}

// TestWriteFileAtomicFailureKeepsOldFile: whichever step fails, the file at
// path still holds what it held and no temporary file stays behind. The two
// failures are ones even root cannot write through: a name so long that the
// temporary file beside it cannot be created, and a rename onto a non-empty
// directory.
func TestWriteFileAtomicFailureKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	long := filepath.Join(dir, strings.Repeat("n", 250))
	if err := os.WriteFile(long, []byte("old"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(long, []byte("new")); err == nil {
		t.Fatal("write beside a 250-byte name succeeded: the temporary file's name cannot fit")
	}
	if got, err := os.ReadFile(long); err != nil || string(got) != "old" {
		t.Fatalf("failed write left %q, %v; want the old content", got, err)
	}

	target := filepath.Join(dir, "taken")
	if err := os.MkdirAll(filepath.Join(target, "child"), 0o700); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(target, []byte("new")); err == nil {
		t.Fatal("rename onto a non-empty directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("directory holds %d entries after the failed writes, want the two it had", len(entries))
	}
}
