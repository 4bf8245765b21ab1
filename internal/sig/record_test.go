package sig

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// The record may only answer what the backend would, and rendering a
// signature late may change no byte and no answer. These tests run programs
// of keyring operations through a keyring that answers from its terms and a
// reference that answers nothing (MemoCapacity -1: every verification
// rendered and paid to the backend), and require the same Verify answer at
// every step, and rendered bytes equal to what the backend signed when Sign
// was called.

var (
	progIDs   = []string{"a", "b", "c"}
	progSeeds = []string{"s0", "s1"}
)

// triple is one (signer, payload, signature) a program has seen. sigs holds
// the record keyring's handle and the reference's: the two terms of one Sign
// (own), or one Raw or foreign signature both verify. eager is what the
// backend signed at Sign, for an own triple.
type triple struct {
	signer  string
	payload []byte
	sigs    [2]Signature
	own     bool
	eager   []byte
}

func (x triple) String() string { return fmt.Sprintf("%s/%q/%x", x.signer, x.payload, x.eager) }

// eagerSign is what the parent's Sign returned: the backend's signature under
// id's current key, computed now.
func eagerSign(kr *Keyring, id string, payload []byte) []byte {
	return bytes.Clone(kr.backend.bind(kr.keys[kr.index(id)].key).sign(payload))
}

// driveKeyrings runs program — two bytes a step, an operation and its
// argument — through a keyring with a record and the reference, both under
// backend, and returns how many of the record keyring's verifications it
// answered and how many it paid to the backend.
func driveKeyrings(t *testing.T, backend string, program []byte) (hits, misses uint64) {
	t.Helper()
	seed := progSeeds[0]
	opts := Options{Backend: backend}
	rec := NewKeyringWith(opts, seed, progIDs)
	ref := NewKeyringWith(Options{Backend: backend, MemoCapacity: -1}, seed, progIDs)
	all := [2]*Keyring{rec, ref}
	others := map[string]*Keyring{}
	var pool []triple // the triples seen so far, the newest last
	var log []string
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s after\n  %s\n%s", backend, strings.Join(log, "\n  "), fmt.Sprintf(format, args...))
	}
	pick := func(arg byte) (triple, bool) {
		if len(pool) == 0 {
			return triple{}, false
		}
		return pool[int(arg)%len(pool)], true
	}
	// verify has each keyring verify its own handle; the answers must agree.
	verify := func(x triple) bool {
		before := rec.stats
		want := ref.Verify(x.signer, x.payload, x.sigs[1])
		if got := rec.Verify(x.signer, x.payload, x.sigs[0]); got != want {
			fail("Verify(%v) = %v, the backend %v", x, got, want)
		}
		hits += rec.stats.MemoHits - before.MemoHits
		misses += rec.stats.MemoMisses - before.MemoMisses
		return want
	}
	// rendered renders both handles of x, which must agree with each other
	// and with what the backend signed at Sign, and returns the bytes.
	rendered := func(x triple) []byte {
		got, want := x.sigs[0].Bytes(), x.sigs[1].Bytes()
		if !bytes.Equal(got, want) {
			fail("%v renders %x, the reference %x", x, got, want)
		}
		if x.own && want != nil && !bytes.Equal(want, x.eager) {
			fail("%v renders %x, the backend signed %x at Sign", x, want, x.eager)
		}
		return want
	}
	// raw enters and verifies a triple whose signature is b as literal bytes.
	raw := func(x triple, b []byte) {
		s := Raw(b)
		x.sigs, x.own, x.eager = [2]Signature{s, s}, false, nil
		pool = append(pool, x)
		verify(x)
	}
	for i := 0; i+1 < len(program) && i < 512; i += 2 {
		op, arg := program[i]%12, program[i+1]
		id, seedArg := progIDs[int(arg)%len(progIDs)], progSeeds[int(arg)%len(progSeeds)]
		payload := []byte{'m', '0' + arg%5}
		log = append(log, fmt.Sprintf("op %d arg %d", op, arg))
		switch op {
		case 0, 11: // sign; 11 then verifies a tampered copy of the bytes
			x := triple{signer: id, payload: payload, own: true}
			if ref.Has(id) {
				x.eager = eagerSign(ref, id, payload)
			}
			for j, kr := range all {
				x.sigs[j] = kr.Sign(id, payload)
			}
			if (x.sigs[0] == Signature{}) != (x.eager == nil) || (x.sigs[1] == Signature{}) != (x.eager == nil) {
				fail("Sign(%s) = %v and %v, holding a key: %v", id, x.sigs[0], x.sigs[1], x.eager != nil)
			}
			if x.eager == nil {
				continue
			}
			pool = append(pool, x)
			if op == 11 {
				b := slices.Clone(x.eager)
				b[int(arg)%len(b)] ^= 0x80
				raw(x, b)
			}
		case 1: // verify a triple
			if x, ok := pick(arg); ok {
				verify(x)
			}
		case 2: // a tampered payload
			if x, ok := pick(arg); ok {
				x.payload = slices.Clone(x.payload)
				x.payload[int(arg)%len(x.payload)] ^= 1
				verify(x)
			}
		case 3: // a tampered copy of the signature
			if x, ok := pick(arg); ok {
				if b := slices.Clone(rendered(x)); len(b) > 0 {
					b[int(arg)%len(b)] ^= 0x80
					raw(x, b)
				}
			}
		case 4: // a wrong signer
			if x, ok := pick(arg); ok {
				x.signer = progIDs[(slices.Index(progIDs, x.signer)+1+int(arg)%2)%len(progIDs)]
				verify(x)
			}
		case 5: // a truncated copy of the signature
			if x, ok := pick(arg); ok {
				if b := rendered(x); len(b) > 0 {
					raw(x, b[:int(arg)%len(b)])
				}
			}
		case 6: // another keyring's signature, under either seed
			other := others[seedArg]
			if other == nil {
				other = NewKeyringWith(opts, seedArg, progIDs)
				others[seedArg] = other
			}
			s := other.Sign(id, payload)
			x := triple{signer: id, payload: payload, sigs: [2]Signature{s, s}}
			pool = append(pool, x)
			verify(x)
		case 7: // Add, replacing the key when id holds one
			for _, kr := range all {
				kr.Add(progSeeds[int(arg/3)%len(progSeeds)], id)
			}
		case 8, 9: // Reset to the same seed, or to the other
			if op == 9 {
				seed = progSeeds[(slices.Index(progSeeds, seed)+1)%len(progSeeds)]
			}
			var parts []string
			for j, p := range progIDs {
				if (arg%7+1)&(1<<j) != 0 {
					parts = append(parts, p)
				}
			}
			for _, kr := range all {
				kr.Reset(seed, parts)
			}
			// Every handle signed before is stale now: it renders nil and
			// verifies nowhere.
			for _, x := range pool {
				if !x.own {
					continue
				}
				if b := rendered(x); b != nil {
					fail("%v renders %x after a Reset, want a stale handle's nil", x, b)
				}
				if verify(x) {
					fail("%v verifies after a Reset", x)
				}
			}
		case 10: // render now, which must change no answer
			if x, ok := pick(arg); ok {
				before := verify(x)
				b := rendered(x)
				if verify(x) != before {
					fail("rendering %v changed its answer from %v", x, before)
				}
				if b != nil {
					raw(x, slices.Clone(b))
				}
			}
		}
		if len(pool) > 32 {
			pool = pool[len(pool)-32:]
		}
	}
	return hits, misses
}

// TestIssuanceRecordMatchesBackend drives random programs, and one that runs
// every operation in turn, through both backends: the record must answer
// every verification as the backend does, and must answer some of them.
func TestIssuanceRecordMatchesBackend(t *testing.T) {
	every := make([]byte, 0, 48)
	for op := byte(0); op < 24; op++ {
		every = append(every, op%12, op)
	}
	for _, backend := range BackendNames() {
		runs := 300
		if backend == BackendEd25519 {
			runs = 40
		}
		if testing.Short() {
			runs /= 4
		}
		rng := rand.New(rand.NewPCG(28, uint64(len(backend))))
		program := make([]byte, 2*60)
		hits, misses := driveKeyrings(t, backend, every)
		for run := 0; run < runs; run++ {
			for i := range program {
				program[i] = byte(rng.Uint32())
			}
			h, m := driveKeyrings(t, backend, program)
			hits, misses = hits+h, misses+m
		}
		if hits == 0 || misses == 0 {
			t.Fatalf("%s: %d record hits and %d backend verifications: the programs exercised one path only", backend, hits, misses)
		}
	}
}

// FuzzKeyringOps is TestIssuanceRecordMatchesBackend under the native fuzzing
// engine: any program, on the backend its first byte picks, the same answers
// step for step.
func FuzzKeyringOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{
		1,    // hmac
		0, 0, // sign a
		1, 0, // verify it
		2, 1, // a tampered payload
		3, 2, // a tampered copy of the signature
		4, 0, // a wrong signer
		5, 6, // 6 bytes of it
		6, 1, // b signs on another keyring, under s1
		7, 3, // Add a under s1, replacing its key
		1, 0, // a's triple from before the Add
		10, 0, // render it now
		0, 1, // sign b
		8, 4, // Reset to {a, c} under s0: everything signed is stale
		1, 5, // b's triple, b dropped
		1, 4, // a's bytes from before the Add, as Raw, under its s0 key again
		9, 5, // Reset to s1, {b, c}
		1, 5, // b's triple, under the other seed
		11, 2, // c signs, and a tampered copy
		10, 1, // render one now
	})
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) == 0 {
			return
		}
		driveKeyrings(t, BackendNames()[program[0]%2], program[1:])
	})
}
