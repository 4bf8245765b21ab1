// Package netsim is a golden-diagnostic fixture for the globalrand
// analyzer: deterministic packages must draw all randomness from seeded
// generators.
package netsim

import (
	crand "crypto/rand" // want `crypto/rand imported in deterministic package repro/internal/netsim`
	"math/rand"
)

func globalDraw() int {
	return rand.Intn(6) // want `rand.Intn draws from the process-global source`
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `rand.Shuffle draws from the process-global source`
}

func reseed() {
	rand.Seed(1) // want `rand.Seed draws from the process-global source`
}

func entropy(b []byte) {
	_, _ = crand.Read(b)
}

// A seeded generator comes from sim.NewRand: building a math/rand one is
// refused outside internal/sim (see the sim fixture's rand.go).
func seeded(seed int64) int {
	src := rand.NewSource(seed) // want `rand.NewSource builds a generator in deterministic package repro/internal/netsim; seed one with sim.NewRand instead`
	rng := rand.New(src)        // want `rand.New builds a generator in deterministic package repro/internal/netsim`
	return rng.Intn(6)
}

// Declarations naming the types stay allowed.
func takesRand(rng *rand.Rand) int64 {
	return rng.Int63()
}

func justified() int {
	//lint:globalrand fixture: a justified suppression silences the finding
	return rand.Int()
}
