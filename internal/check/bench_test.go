package check

import (
	"testing"

	"repro/internal/core"
)

// BenchmarkJudge prices judging a payment as the traffic engine does —
// World.Collect, then Evaluate into a kept report — on an honest n=2 result
// and on an n=8 one with a silent connector, whose T and CS3 verdicts fail.
func BenchmarkJudge(b *testing.B) {
	for _, c := range []struct {
		name   string
		n      int
		faulty string
	}{{"honest_n2", 2, ""}, {"faulted_n8", 8, "c4"}} {
		b.Run(c.name, func(b *testing.B) {
			s := core.NewScenario(c.n, 1).Muted()
			if c.faulty != "" {
				s = s.SetFault(c.faulty, core.FaultSpec{Silent: true})
			}
			w := core.NewWorld()
			if err := w.Reset(&s); err != nil {
				b.Fatal(err)
			}
			// Everyone upstream of the fault paid in, and only those before
			// it terminated; a connector lost what it paid.
			outcome := func(i int, out *core.CustomerOutcome) {
				out.PaidOut = 10
				out.Terminated = c.faulty == "" || i < 3
				if c.faulty != "" && i == 1 {
					out.WealthAfter -= 10
				}
			}
			var rep Report
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep.Evaluate(w.Collect("judge", 0, outcome), Def1Eventual())
			}
			if c.faulty != "" && rep.AllOK() {
				b.Fatal("the faulted result judged clean")
			}
		})
	}
}
