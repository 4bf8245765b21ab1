package sig

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// The issuance record may only answer what the backend would. These tests
// run programs of keyring operations through keyrings that keep a record and
// through a reference that keeps none (MemoCapacity -1, every verification
// paid to the backend), and require the same Verify answer at every step.

var (
	progIDs   = []string{"a", "b", "c"}
	progSeeds = []string{"s0", "s1"}
)

// smallRecord is the capacity of the record a program overflows; the default
// one holds every signature a program makes.
const smallRecord = 3

// triple is one (signer, payload, signature) a program has seen, in bytes of
// its own: a Reset hands a keyring's signature storage out again.
type triple struct {
	signer  string
	payload []byte
	sig     Signature
}

func (x triple) String() string { return fmt.Sprintf("%s/%q/%v", x.signer, x.payload, x.sig) }

// driveKeyrings runs program — two bytes a step, an operation and its
// argument — through a default keyring, a keyring with a record of
// smallRecord entries and the reference, all under backend, and returns how
// many of the default keyring's verifications its record answered and how
// many it paid to the backend.
func driveKeyrings(t *testing.T, backend string, program []byte) (hits, misses uint64) {
	t.Helper()
	seed := progSeeds[0]
	opts := Options{Backend: backend}
	recs := []*Keyring{NewKeyringWith(opts, seed, progIDs), NewKeyringWith(Options{Backend: backend, MemoCapacity: smallRecord}, seed, progIDs)}
	ref := NewKeyringWith(Options{Backend: backend, MemoCapacity: -1}, seed, progIDs)
	all := append(slices.Clone(recs), ref)
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
	// sign signs on every keyring, which must agree byte for byte, and
	// enters the triple in the pool.
	sign := func(id string, payload []byte) {
		want := ref.Sign(id, payload)
		for _, kr := range recs {
			if got := kr.Sign(id, payload); !bytes.Equal(got, want) {
				fail("Sign(%s, %q) = %v, the reference %v", id, payload, got, want)
			}
		}
		if want != nil {
			pool = append(pool, triple{id, payload, slices.Clone(want)})
		}
	}
	verify := func(x triple) {
		want := ref.Verify(x.signer, x.payload, x.sig)
		for i, kr := range recs {
			before := kr.stats
			if got := kr.Verify(x.signer, x.payload, x.sig); got != want {
				fail("keyring %d: Verify(%v) = %v, the backend %v", i, x, got, want)
			}
			if i == 0 {
				hits += kr.stats.MemoHits - before.MemoHits
				misses += kr.stats.MemoMisses - before.MemoMisses
			}
		}
	}
	for i := 0; i+1 < len(program) && i < 512; i += 2 {
		op, arg := program[i]%12, program[i+1]
		id, seedArg := progIDs[int(arg)%len(progIDs)], progSeeds[int(arg)%len(progSeeds)]
		payload := []byte{'m', '0' + arg%5}
		log = append(log, fmt.Sprintf("op %d arg %d", op, arg))
		switch op {
		case 0: // sign
			sign(id, payload)
		case 1: // verify an issued triple
			if x, ok := pick(arg); ok {
				verify(x)
			}
		case 2: // a tampered payload
			if x, ok := pick(arg); ok {
				x.payload = slices.Clone(x.payload)
				x.payload[int(arg)%len(x.payload)] ^= 1
				verify(x)
			}
		case 3: // a tampered signature
			if x, ok := pick(arg); ok {
				x.sig = slices.Clone(x.sig)
				x.sig[int(arg)%len(x.sig)] ^= 0x80
				verify(x)
			}
		case 4: // a wrong signer
			if x, ok := pick(arg); ok {
				x.signer = progIDs[(slices.Index(progIDs, x.signer)+1+int(arg)%2)%len(progIDs)]
				verify(x)
			}
		case 5: // a signature under 8 bytes
			if x, ok := pick(arg); ok {
				x.sig = x.sig[:6]
				verify(x)
			}
		case 6: // another keyring's signature, under either seed
			other := others[seedArg]
			if other == nil {
				other = NewKeyringWith(opts, seedArg, progIDs)
				others[seedArg] = other
			}
			x := triple{id, payload, slices.Clone(other.Sign(id, payload))}
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
		case 10: // overflow the small record
			signer := ref.Participants()[int(arg)%len(ref.Participants())]
			for j := 0; j <= smallRecord; j++ {
				sign(signer, []byte{'f', byte(j), arg})
			}
		case 11: // a signature tampered in place after Sign returned it
			want := ref.Sign(id, payload)
			if want == nil {
				continue
			}
			want[0] ^= 0x80
			answer := ref.Verify(id, payload, want)
			for j, kr := range recs {
				s := kr.Sign(id, payload)
				s[0] ^= 0x80
				if got := kr.Verify(id, payload, s); got != answer {
					fail("keyring %d: a signature tampered in place verifies %v, the backend %v", j, got, answer)
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
		3, 2, // a tampered signature
		4, 0, // a wrong signer
		5, 0, // 6 bytes
		6, 1, // b signs on another keyring, under s1
		7, 3, // Add a under s1, replacing its key
		1, 0, // a's triple from before the Add
		0, 1, // sign b
		8, 4, // Reset to {a, c}
		1, 8, // b's own triple, b dropped
		9, 5, // Reset to s1, {b, c}
		1, 8, // b's own triple, under the old seed
		10, 0, // overflow the small record
		1, 3,
		11, 2, // c's signature, tampered in place
	})
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) == 0 {
			return
		}
		driveKeyrings(t, BackendNames()[program[0]%2], program[1:])
	})
}
