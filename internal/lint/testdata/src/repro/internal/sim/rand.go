package sim

import "math/rand"

// Rand stands in for the simulator's generator: the maprange analyzer
// treats every call on it as a draw, its own methods and the ones it
// promotes from math/rand alike.
type Rand struct{ *rand.Rand }

// NewRand may build a math/rand generator: globalrand allows that inside
// internal/sim, which is where seeded generators come from.
func NewRand(seed int64) *Rand { return &Rand{rand.New(rand.NewSource(seed))} }

func (r *Rand) Int63n(n int64) int64 { return r.Rand.Int63n(n) }

func ownDraw(r *Rand, bounds map[string]int64) (sum int64) {
	for _, n := range bounds { // want `range over map bounds with an order-sensitive body \(draws from a \*sim\.Rand \(Int63n\)\)`
		sum += r.Int63n(n)
	}
	return sum
}

func promotedDraw(r *Rand, weights map[string]float64) {
	for range weights { // want `range over map weights with an order-sensitive body \(draws from a \*sim\.Rand \(Float64\)\)`
		_ = r.Float64()
	}
}
