package traffic

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// wantID is a payment's ID as the format defines it.
func wantID(i, sender, receiver int) string {
	return fmt.Sprintf("p%05d-c%d-c%d", i, sender, receiver)
}

// idIndex is the payment index an ID names.
func idIndex(t *testing.T, id string) int {
	t.Helper()
	i, err := strconv.Atoi(id[1:strings.IndexByte(id, '-')])
	if err != nil {
		t.Fatalf("ID %q names no index: %v", id, err)
	}
	return i
}

// idChecker passes a pipeline's payments on, and checks each one's ID on the
// way: what the timeline reads is what the format defines.
type idChecker struct {
	paymentSource
	t   *testing.T
	ids map[int]string
}

func (c *idChecker) next() (*payment, subOutcome, bool) {
	p, sub, ok := c.paymentSource.next()
	if ok {
		if want := wantID(p.Index, p.Sender, p.Receiver); p.ID != want {
			c.t.Fatalf("payment %d is named %q, want %q", p.Index, p.ID, want)
		}
		c.ids[p.Index] = p.ID
	}
	return p, sub, ok
}

// subPaths is a population of random sub-paths, so that on a chain of ten
// escrows or more some customer numbers have two digits.
func subPaths(payments int) Workload {
	w := NewWorkload(payments)
	w.Arrival.Rate = 2000
	w.RandomSubPaths = true
	return w
}

// TestPaymentIDsCutFromChunks: the pipeline's producer cuts a chunk's IDs
// from one string (cutIDs), and each is still the ID the format defines,
// wherever it surfaces — across the index where the zero padding stops,
// with two-digit customers, in a chunk that starts where a resume does, in
// kept records, exemplars and the safety sample.
func TestPaymentIDsCutFromChunks(t *testing.T) {
	t.Run("padding stops at 100000, safety sample", func(t *testing.T) {
		// The stub fails C on every payment, so the sample holds the first
		// eight the timeline admits. Skipping (as a resume does) to 99 995
		// puts them across the boundary cheaply, and starts the first chunk
		// off a multiple of chunkSize.
		const from = 99_995
		w := subPaths(from + 600).WithMix(ProtocolShare{Name: "stub", Weight: 1})
		s := core.NewScenario(12, 3)
		ps, err := resolveProtocols(w, map[string]core.Protocol{"stub": lockFailer{core.Theorem1}})
		if err != nil {
			t.Fatal(err)
		}
		src := newStreamSource(s, w, nil, &ps, 1, RunMetrics{}, from)
		defer src.close()
		chk := &idChecker{paymentSource: src, t: t, ids: map[int]string{}}
		res := &Result{Chain: s.Topology.N, Seed: s.Seed, Workload: w, Book: newLiquidityBook(s, w, w.demand(s))}
		if err := executeTimeline(res, chk, w, &ps, nil, false, 0, nil, RunMetrics{}, nil, nil); err != nil {
			t.Fatal(err)
		}
		if len(chk.ids) != 600 {
			t.Fatalf("the pipeline handed out %d payments, want 600", len(chk.ids))
		}
		if len(res.SafetySample) != maxSafetySample {
			t.Fatalf("safety sample %q, want %d entries", res.SafetySample, maxSafetySample)
		}
		for k, detail := range res.SafetySample {
			if want := chk.ids[from+k] + " C (stub): honest e0 hit lock-failed"; detail != want {
				t.Errorf("sample %d is %q, want %q", k, detail, want)
			}
		}
		if id := chk.ids[100_000]; !strings.HasPrefix(id, "p100000-c") {
			t.Errorf("payment 100000 is named %q", id)
		}
	})

	s := core.NewScenario(12, 5)
	w := subPaths(1500)
	// A resume at 700 starts the producer's first chunk off a multiple of
	// chunkSize.
	kept, _ := resumeAfterInterrupt(t, s, w, Config{Workers: 1, KeepPayments: true}, 700)
	twoDigits := false
	for i := range kept.Payments {
		pr := &kept.Payments[i]
		if want := wantID(i, pr.Sender, pr.Receiver); pr.ID != want {
			t.Fatalf("kept record %d is named %q, want %q", i, pr.ID, want)
		}
		twoDigits = twoDigits || pr.Receiver >= 10
	}
	if !twoDigits {
		t.Fatal("no payment reaches a two-digit customer")
	}

	dropped, _ := resumeAfterInterrupt(t, s, w, Config{Workers: 1, Stream: true, Exemplars: 16}, 700)
	if len(dropped.Exemplars) != 16 {
		t.Fatalf("%d exemplars, want 16", len(dropped.Exemplars))
	}
	for _, ex := range dropped.Exemplars {
		if want := kept.Payments[idIndex(t, ex.ID)]; !reflect.DeepEqual(ex, want) {
			t.Errorf("exemplar %+v, kept record %+v", ex, want)
		}
	}
}
