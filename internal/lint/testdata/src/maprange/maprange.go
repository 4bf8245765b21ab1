// Package maprange is a golden-diagnostic fixture for the maprange
// analyzer. The local engine/network types mirror the method shapes the
// analyzer keys on (ScheduleArgAt, Send, Post) so the fixture stays
// self-contained.
package maprange

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

type engine struct{}

func (engine) ScheduleArgAt(t int64, name string, f func(any), arg any) {}

type network struct{}

func (network) Send(from, to string, payload any) {}

func (network) Post(from, to int, payload any) {}

func schedules(e engine, wake map[string]int64) {
	for id, t := range wake { // want `range over map wake with an order-sensitive body \(calls ScheduleArgAt, committing event order\)`
		_ = id
		e.ScheduleArgAt(t, "wake", func(any) {}, nil)
	}
}

func sends(n network, peers map[string]bool) {
	for id := range peers { // want `range over map peers with an order-sensitive body \(calls Send, committing event order\)`
		n.Send("origin", id, nil)
	}
}

func posts(n network, peers map[int]bool) {
	for to := range peers { // want `range over map peers with an order-sensitive body \(calls Post, committing event order\)`
		n.Post(0, to, nil)
	}
}

func draws(rng *rand.Rand, weights map[string]float64) {
	for range weights { // want `range over map weights with an order-sensitive body \(draws from a \*rand\.Rand \(Float64\)\)`
		_ = rng.Float64()
	}
}

func channelSend(ch chan string, m map[string]bool) {
	for id := range m { // want `range over map m with an order-sensitive body \(sends on a channel\)`
		ch <- id
	}
}

func appendsUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m { // want `range over map m with an order-sensitive body \(appends to keys in iteration order\)`
		keys = append(keys, k)
	}
	return keys
}

// The sanctioned append-then-sort idiom: appending in map order is fine
// because the sort erases it.
func appendThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Appending to a slice declared inside the loop never leaks iteration order.
func localAppend(m map[string]int) int {
	total := 0
	for _, v := range m {
		var parts []int
		parts = append(parts, v)
		total += parts[0]
	}
	return total
}

func builds(m map[string]int) string {
	var b strings.Builder
	for k := range m { // want `range over map m with an order-sensitive body \(writes to b in iteration order\)`
		b.WriteString(k)
	}
	return b.String()
}

func concats(m map[string]int) string {
	out := ""
	for k := range m { // want `range over map m with an order-sensitive body \(concatenates onto string out in iteration order\)`
		out += k
	}
	return out
}

func prints(m map[string]int) string {
	var b strings.Builder
	for k, v := range m { // want `range over map m with an order-sensitive body \(writes output via fmt\.Fprintf in iteration order\)`
		fmt.Fprintf(&b, "%s=%d\n", k, v)
	}
	return b.String()
}

func returnsFirst(m map[string]int) error {
	for k, v := range m { // want `range over map m with an order-sensitive body \(returns k, the first entry the iteration reaches\)`
		if v < 0 {
			return fmt.Errorf("negative entry %s", k)
		}
	}
	return nil
}

// An early return of a constant does not say which entry was reached.
func anyNegative(m map[string]int) bool {
	for _, v := range m {
		if v < 0 {
			return true
		}
	}
	return false
}

// The sorted-keys idiom: the first bad entry is the smallest bad key.
func returnsFirstSorted(m map[string]int) error {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if m[k] < 0 {
			return fmt.Errorf("negative entry %s", k)
		}
	}
	return nil
}

// A return inside a function literal returns from the literal.
func returnsInLiteral(m map[string]int) int {
	total := 0
	for k := range m {
		length := func() int { return len(k) }
		total += length()
	}
	return total
}

// Commutative accumulation is inherently order-insensitive.
func counts(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

func justified(e engine, wake map[string]int64) {
	//lint:maporder fixture: a justified suppression silences the finding
	for _, t := range wake {
		e.ScheduleArgAt(t, "wake", func(any) {}, nil)
	}
}
