package traffic

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
)

// Point is one cell of a traffic sweep: a labelled (scenario, workload)
// pair.
type Point struct {
	Label    string
	Scenario core.Scenario
	Workload Workload
}

// Outcome pairs a sweep point with its traffic result. Metrics is the
// cell's private registry (nil unless the sweep ran with Config.Metrics):
// cells run concurrently, so they must not share one registry — a shared
// gauge toggled by two cells at once reads as whichever cell wrote last,
// and shared counters blur the cells together. Each cell therefore gets
// its own registry labelled cell="<label>", and callers that want one
// scrape merge the outcome snapshots (metrics.WriteProm distinguishes the
// cells by the constant label).
type Outcome struct {
	Point   Point
	Result  *Result
	Err     error
	Metrics *metrics.Registry
}

// Sweep executes every point across a worker pool of cfg.Workers goroutines
// (NumCPU by default) and returns outcomes in point order regardless of
// which worker finished first. Each point's own payment simulations run
// serially inside its worker — the pool parallelises across cells, not
// within them — so a sweep keeps exactly cfg.Workers cores busy and every
// cell's Result is identical to a standalone run. The retention settings
// (Stream, KeepPayments, Exemplars) carry over to every cell unchanged;
// Config.Metrics is replaced per cell by a labelled private registry
// returned in Outcome.Metrics (see Outcome).
func Sweep(points []Point, cfg Config) []Outcome {
	out := make([]Outcome, len(points))
	perCell := cfg
	perCell.Workers = 1
	forEachIndex(len(points), cfg.workers(), func(idx int) {
		cellCfg := perCell
		if cfg.Metrics != nil {
			label := points[idx].Label
			if label == "" {
				label = fmt.Sprintf("cell%d", idx)
			}
			cellCfg.Metrics = metrics.NewLabeledRegistry("cell", label)
		}
		r, err := RunWith(points[idx].Scenario, points[idx].Workload, cellCfg)
		out[idx] = Outcome{Point: points[idx], Result: r, Err: err, Metrics: cellCfg.Metrics}
	})
	return out
}

// SeedSweep builds one point per seed, all sharing the base scenario shape
// and workload.
func SeedSweep(base core.Scenario, w Workload, seeds []int64) []Point {
	out := make([]Point, 0, len(seeds))
	for _, seed := range seeds {
		out = append(out, Point{
			Label:    fmt.Sprintf("n=%d seed=%d", base.Topology.N, seed),
			Scenario: base.WithSeed(seed),
			Workload: w,
		})
	}
	return out
}
