package traffic

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

// Every _ms key is rounded to the nearest microsecond: 1.001 ms is 1 001 µs
// (the product 1.001 × 1000 is a hair below 1 001, which truncation made
// 1 000 µs), on each of the six keys and on every whole-µs value below one
// second.
func TestRequestRoundsMillisToMicros(t *testing.T) {
	q, err := DecodeRequest(strings.NewReader(`{"fault_fraction": 0.5, "burst_gap_ms": 1.001, "queue_patience_ms": 1.001,
		"fault_from_ms": 1.001, "fault_stagger_ms": 1.001, "fault_outage_ms": 1.001, "manager_outage_ms": 1.001}`))
	if err != nil {
		t.Fatal(err)
	}
	_, w, _, err := q.Build()
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]sim.Time{
		"burst_gap_ms":      w.Arrival.BurstGap,
		"queue_patience_ms": w.QueuePatience,
		"fault_from_ms":     w.Faults.From,
		"fault_stagger_ms":  w.Faults.Stagger,
		"fault_outage_ms":   w.Faults.Outage,
		"manager_outage_ms": w.Faults.ManagerOutage,
	} {
		if got != 1001 {
			t.Errorf("%s 1.001 built %d µs, want 1001", name, got)
		}
	}
	for us := sim.Time(1); us < sim.Second; us++ {
		if got := micros(float64(us) / 1000); got != us {
			t.Fatalf("%v ms converts to %d µs, want %d", float64(us)/1000, got, us)
		}
	}
}

// Build names the key at fault in every refusal, including those
// Workload.Validate makes, and treats an empty kind and a zero burst as the
// engine's defaults.
func TestRequestBuild(t *testing.T) {
	for _, tc := range []struct{ body, key string }{
		{`{"escrows": 0}`, "escrows"},
		{`{"rate": 0}`, "rate"},
		{`{"amount": 0}`, "amount"},
		{`{"crypto": "rsa"}`, "crypto"},
		{`{"faults": "c1=sillent"}`, "faults"},
		{`{"mix": "timelock=abc"}`, "mix"},
		{`{"mix": "timelock=0"}`, "mix"},
		{`{"payments": 0}`, "payments"},
		{`{"arrival": "brust"}`, "arrival"},
		{`{"amount_dist": "normal"}`, "amount_dist"},
		{`{"commission": -1}`, "commission"},
		{`{"hotspot_frac": 0.5}`, "hotspot_frac"},
		{`{"subpaths": true, "hotspot": 8, "hotspot_frac": 0.5}`, "hotspot"},
		{`{"liquidity": 1000000000001}`, "liquidity"},
		{`{"queue_patience_ms": 1e300}`, "queue_patience_ms"},
		{`{"escrows": 1, "fault_fraction": 0.5}`, "fault_fraction"},
		{`{"fault_fraction": 0.5, "fault_behaviours": ["silent", "bogus"]}`, "fault_behaviours"},
		{`{"manager_outage_ms": 5, "fault_stagger_ms": -1}`, "fault_stagger_ms"},
		// Negative values the engine would read as its defaults, or as
		// "no fault plan".
		{`{"fault_fraction": -1}`, "fault_fraction"},
		{`{"fault_fraction": -0.5, "manager_outage_ms": 5}`, "fault_fraction"},
		{`{"manager_outage_ms": -1}`, "manager_outage_ms"},
		{`{"fault_fraction": 0.5, "manager_outage_ms": -1}`, "manager_outage_ms"},
		{`{"workers": -1}`, "workers"},
		{`{"liquidity": -1}`, "liquidity"},
		{`{"max_queue": -1}`, "max_queue"},
		{`{"queue_patience_ms": -1}`, "queue_patience_ms"},
		{`{"queue_patience_ms": -0.0001}`, "queue_patience_ms"},
		{`{"burst_size": -1, "arrival": "burst"}`, "burst_size"},
		{`{"burst_gap_ms": -1, "arrival": "burst"}`, "burst_gap_ms"},
		{`{"spread": -1, "amount_dist": "uniform"}`, "spread"},
		// A fault window below 0 is refused with or without a fault plan.
		{`{"fault_from_ms": -1}`, "fault_from_ms"},
		{`{"fault_stagger_ms": -1}`, "fault_stagger_ms"},
		{`{"fault_outage_ms": -1}`, "fault_outage_ms"},
		{`{"fault_fraction": 0.5, "fault_outage_ms": -1}`, "fault_outage_ms"},
		// Size bounds, checked before anything is sized by the request.
		{`{"payments": 1099511627776}`, "payments"},
		{`{"payments": 1000001}`, "payments"},
		{`{"payments": 100000001, "stream": true}`, "payments"},
	} {
		q, err := DecodeRequest(strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		_, _, _, err = q.Build()
		if re := (*RequestError)(nil); !errors.As(err, &re) || re.Key != tc.key || !strings.HasPrefix(err.Error(), tc.key+": ") {
			t.Errorf("%s: error %v, want one naming %q", tc.body, err, tc.key)
		}
	}
	// A flag can spell NaN, which no comparison with 0 admits.
	nan := DefaultRequest()
	nan.FaultFraction = math.NaN()
	if _, _, _, err := nan.Build(); err == nil || !strings.HasPrefix(err.Error(), "fault_fraction: ") {
		t.Errorf("NaN fault fraction: error %v, want one naming fault_fraction", err)
	}
	q, err := DecodeRequest(strings.NewReader(`{"mix": "", "arrival": "", "amount_dist": "", "burst_size": 0,
		"subpaths": true, "hotspot": 1, "hotspot_frac": 0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, w, _, err := q.Build(); err != nil || w.Arrival.Kind != ArrivalPoisson || w.Amounts.Kind != AmountFixed ||
		w.Arrival.BurstSize != 0 || w.Mix != nil || w.HotspotSender != 1 {
		t.Errorf("defaults and hotspot built %+v, %v", w, err)
	}
	if _, err := DecodeRequest(strings.NewReader(`{"nope": 1}`)); err == nil {
		t.Error("unknown key decoded")
	}
}
