package check_test

import (
	"path/filepath"
	"testing"

	"repro/internal/check"
	"repro/internal/scenariogen"
	"repro/internal/sim"
)

// TestEvaluateMatchesReferenceOnRuns checks Evaluate against the
// per-property reference on real results: every single-payment spec among
// the first 300 the generator draws and every one of the replay corpus, each
// run once and judged under both Definitions, with and without bounds. A run
// on a world carries the audit Collect made, which the reference makes anew.
func TestEvaluateMatchesReferenceOnRuns(t *testing.T) {
	var specs []scenariogen.Spec
	for seed := range int64(300) {
		specs = append(specs, scenariogen.Generate(seed))
	}
	files, err := filepath.Glob(filepath.Join("..", "scenariogen", "testdata", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("replay corpus: %d files, err %v", len(files), err)
	}
	for _, path := range files {
		r, err := scenariogen.LoadReplay(path)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, r.Spec)
	}
	runs, failing := 0, 0
	for _, sp := range specs {
		protos, err := sp.Protocols()
		if err != nil {
			continue // a deal or a traffic population: no core.RunResult
		}
		s, err := sp.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range protos {
			res, err := p.Run(s)
			if err != nil {
				t.Fatalf("%s: %v", sp.Describe(), err)
			}
			runs++
			for _, opts := range []check.Options{
				check.Def1Eventual(), check.Def1TimeBounded(sim.Millisecond), check.Def1TimeBounded(sim.Second),
				check.Def2(0), check.Def2(sp.SufficientPatience()),
			} {
				if err := check.MatchReference(res, opts); err != nil {
					t.Fatalf("%s on %s, %+v: %v", sp.Describe(), p.Name(), opts, err)
				}
				if rep := check.Evaluate(res, opts); !rep.AllOK() {
					failing++
				}
			}
		}
	}
	t.Logf("%d runs, %d failing judgements", runs, failing)
	if runs < 200 || failing == 0 {
		t.Fatalf("%d runs, %d failing judgements: the table judges too little", runs, failing)
	}
}
