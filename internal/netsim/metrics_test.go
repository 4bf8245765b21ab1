package netsim

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// An instrumented network mirrors its Stats counters into the registry,
// including drops to unknown recipients, and counts broadcasts.
func TestNetworkMetrics(t *testing.T) {
	r := metrics.NewRegistry()
	eng := sim.NewEngine(7)
	net := New(eng, Synchronous{Min: 1, Max: 5 * sim.Millisecond}, nil)
	net.SetMetrics(MetricsFrom(r))

	for _, id := range []string{"a", "b", "c"} {
		net.Register(&FuncNode{Id: id})
	}

	net.Send("a", "nobody", RawMessage{Label: "dropped-unknown"})
	net.Send("b", "c", RawMessage{Label: "ok"})
	net.Broadcast("c", RawMessage{Label: "fanout"}) // to a and b
	eng.Run(0)

	st := net.Stats()
	checks := []struct {
		name string
		got  uint64
		want uint64
	}{
		{MetricMessagesSent, r.Counter(MetricMessagesSent, "").Value(), st.Sent},
		{MetricMessagesDelivered, r.Counter(MetricMessagesDelivered, "").Value(), st.Delivered},
		{MetricMessagesDropped, r.Counter(MetricMessagesDropped, "").Value(), st.Dropped},
		{MetricBroadcasts, r.Counter(MetricBroadcasts, "").Value(), 1},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if st.Sent != 4 || st.Dropped != 1 || st.Delivered != 3 {
		t.Fatalf("unexpected baseline stats: %+v", st)
	}
}
