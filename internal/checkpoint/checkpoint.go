// Package checkpoint provides the on-disk envelope for run snapshots:
// versioned, self-describing, checksummed, and atomically written.
//
// A checkpoint file is a JSON envelope around an opaque payload. The
// envelope carries a format marker, a format version, a payload kind, the
// configuration hash of the run that produced it, and a SHA-256 checksum
// over the envelope metadata plus the payload bytes. Load verifies all of
// them strictly and returns a typed error on any mismatch: a corrupt,
// truncated, stale or foreign snapshot is rejected outright, never silently
// half-loaded.
//
// Save writes through WriteFileAtomic — a temporary file in the destination
// directory, renamed into place, the directory synced — so a crash mid-write
// leaves the previous checkpoint file intact: the newest *complete*
// checkpoint always survives.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Format is the envelope's format marker; it never changes.
const Format = "xchain-checkpoint"

// Version is the current envelope format version. Bump it on any
// incompatible payload or envelope change; Load rejects other versions.
const Version = 3

// Typed rejection errors. Load wraps each with file context; match with
// errors.Is.
var (
	// ErrBadFormat marks a file that is not an xchain checkpoint at all
	// (wrong or missing format marker, or not parseable as an envelope —
	// e.g. a truncated write).
	ErrBadFormat = errors.New("checkpoint: not a valid checkpoint file")
	// ErrBadVersion marks an envelope from an incompatible format version.
	ErrBadVersion = errors.New("checkpoint: unsupported format version")
	// ErrBadKind marks an envelope holding a different payload kind than the
	// caller asked for.
	ErrBadKind = errors.New("checkpoint: wrong payload kind")
	// ErrBadChecksum marks an envelope whose content does not match its
	// checksum — bit rot or tampering.
	ErrBadChecksum = errors.New("checkpoint: content checksum mismatch")
)

// Envelope is the decoded checkpoint file. Callers normally use Save/Load
// rather than constructing one directly.
type Envelope struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Kind names the payload type (e.g. "traffic-run") so a snapshot is
	// never deserialised as something it is not.
	Kind string `json:"kind"`
	// ConfigHash fingerprints the configuration of the producing run; the
	// consumer compares it against its own configuration before restoring.
	ConfigHash string `json:"configHash,omitempty"`
	// Payload is the kind-specific snapshot body.
	Payload json.RawMessage `json:"payload"`
	// Checksum is the hex SHA-256 over (format|version|kind|configHash|)
	// followed by the payload bytes.
	Checksum string `json:"checksum"`
}

// checksum computes the envelope's content checksum. It covers the envelope
// metadata as well as the payload, so version or kind tampering is detected
// even when the payload itself is untouched. The payload is checksummed in
// compacted form: the envelope is written indented for inspectability, which
// reformats the embedded payload, so the checksum must not depend on
// insignificant whitespace.
func checksum(version int, kind, configHash string, payload []byte) (string, error) {
	var compact bytes.Buffer
	if err := json.Compact(&compact, payload); err != nil {
		return "", fmt.Errorf("payload is not valid JSON: %w", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|%s|%s|", Format, version, kind, configHash)
	h.Write(compact.Bytes())
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Encode serialises an envelope around payload. The payload must already be
// serialised JSON (conventionally via json.Marshal, whose sorted object keys
// make the bytes — and hence the checksum — deterministic).
func Encode(kind, configHash string, payload []byte) ([]byte, error) {
	sum, err := checksum(Version, kind, configHash, payload)
	if err != nil {
		return nil, err
	}
	env := Envelope{
		Format:     Format,
		Version:    Version,
		Kind:       kind,
		ConfigHash: configHash,
		Payload:    json.RawMessage(payload),
		Checksum:   sum,
	}
	return json.MarshalIndent(env, "", " ")
}

// Save atomically writes a checkpoint file (see WriteFileAtomic).
func Save(path, kind, configHash string, payload []byte) error {
	data, err := Encode(kind, configHash, payload)
	if err != nil {
		return fmt.Errorf("checkpoint: encode %s: %w", path, err)
	}
	if err := WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("checkpoint: save %s: %w", path, err)
	}
	return nil
}

// WriteFileAtomic replaces the file at path with data so that a crash at any
// point leaves either the previous file or the new one, whole: the data goes
// to a temporary file in path's directory, is flushed to stable storage,
// renamed over path, and the directory is flushed so the rename itself
// survives a power cut. An error up to the rename leaves the previous file
// untouched; an error syncing the directory is reported with the new file
// already in place.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) //nolint:errcheck // gone after the rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	// Flush before the rename publishes the file: a crash after the rename
	// must not reveal an empty or partial file.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Decode validates raw envelope bytes and returns the verified envelope,
// with the payload in compacted (canonical) form. Validation order: format,
// version, kind, checksum — so the error names the first structural reason
// the file cannot be trusted.
func Decode(data []byte, kind string) (*Envelope, error) {
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if env.Format != Format {
		return nil, fmt.Errorf("%w: format marker %q", ErrBadFormat, env.Format)
	}
	if env.Version != Version {
		return nil, fmt.Errorf("%w: file has version %d, this build reads version %d", ErrBadVersion, env.Version, Version)
	}
	if env.Kind != kind {
		return nil, fmt.Errorf("%w: file holds %q, caller wants %q", ErrBadKind, env.Kind, kind)
	}
	got, err := checksum(env.Version, env.Kind, env.ConfigHash, env.Payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if got != env.Checksum {
		return nil, fmt.Errorf("%w: computed %s, file claims %s", ErrBadChecksum, got, env.Checksum)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, env.Payload); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	env.Payload = json.RawMessage(compact.Bytes())
	return &env, nil
}

// Load reads and validates the checkpoint file at path, returning the
// verified envelope. Errors wrap the typed rejection sentinels above.
func Load(path, kind string) (*Envelope, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: load: %w", err)
	}
	env, err := Decode(data, kind)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: load %s: %w", path, err)
	}
	return env, nil
}
