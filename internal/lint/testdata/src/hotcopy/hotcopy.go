// Package hotcopy is a golden-diagnostic fixture for the hotcopy analyzer.
// wide mirrors core.Scenario's problem — a struct wider than 128 bytes with a
// value-receiver accessor — and narrow a struct the analyzer leaves alone.
// It imports nothing, so the fixture loads without type-checking any of the
// standard library.
package hotcopy

// wide is 136 bytes: one over the analyzer's limit by eight.
type wide struct {
	words [16]int64
	last  int64
}

func (w wide) byValue() int64 { return w.last }

func (w *wide) byPointer() int64 { return w.last }

// edge is exactly 128 bytes, the widest struct a hot path may copy.
type edge struct{ words [16]int64 }

func (e edge) byValue() int64 { return e.words[0] }

type narrow struct{ a, b int64 }

func (n narrow) byValue() int64 { return n.a }

// table is wider than 128 bytes but no struct: the analyzer is about structs.
type table [32]int64

//xchain:hotpath
func takesWide(w wide) int64 { // want `hot path takesWide takes wide \(136 bytes\) by value; pass a pointer`
	return w.last
}

//xchain:hotpath
func (w wide) wideReceiver() int64 { // want `hot path wideReceiver takes wide \(136 bytes\) by value`
	return w.last
}

//xchain:hotpath
func callsValueMethod(w *wide) int64 {
	return w.byValue() // want `hot path callsValueMethod calls value-receiver method byValue of wide \(136 bytes\)`
}

// readsInPlace is what the analyzer asks for: pointers to wide structs, and
// value methods only of structs no wider than the limit.
//
//xchain:hotpath
func readsInPlace(w *wide, e edge, n narrow, t table) int64 {
	return w.byPointer() + e.byValue() + n.byValue() + t[0]
}

// coldCopy is no hot path: what it copies is its own business.
func coldCopy(w wide) int64 { return w.byValue() }

var _ = coldCopy
