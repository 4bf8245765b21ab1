// Package hotshared is a golden-diagnostic fixture for the hotshared
// analyzer. hits mirrors a process-wide counter every keyring bumped per
// verification; stripe is what the analyzer asks for instead, a cell the
// writer holds.
package hotshared

import "sync/atomic"

var hits atomic.Uint64

type stripe struct {
	n    atomic.Uint64
	flag atomic.Bool
}

var stripes [8]stripe

var current = &stripes[0]

var raw uint64

type keyring struct {
	s *stripe
}

//xchain:hotpath
func (kr *keyring) hit() {
	hits.Add(1) // want `hot path hit writes a process-wide atomic \(Add on hits, reached from package-level hits\)`
}

//xchain:hotpath
func writesEveryWay(i int) {
	stripes[i].n.Store(0)                    // want `hot path writesEveryWay writes a process-wide atomic \(Store on stripes\[i\]\.n, reached from package-level stripes\)`
	current.flag.CompareAndSwap(false, true) // want `\(CompareAndSwap on current\.flag, reached from package-level current\)`
	atomic.AddUint64(&raw, 1)                // want `\(AddUint64 on &raw, reached from package-level raw\)`
	(&hits).Swap(3)                          // want `\(Swap on \(&hits\), reached from package-level hits\)`
}

// ownStripe is what the analyzer asks for: the writer's own cell, and loads
// of the shared one.
//
//xchain:hotpath
func (kr *keyring) ownStripe() uint64 {
	kr.s.n.Add(1)
	var local atomic.Uint64
	local.Store(2)
	atomic.AddUint64(new(uint64), 1)
	return hits.Load() + atomic.LoadUint64(&raw) + local.Load()
}

// cold is no hot path: a write per call there is its own business.
func cold() { hits.Add(1) }

var _ = cold
