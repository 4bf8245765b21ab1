//go:build race

// Package race reports whether the race detector is built in. The
// allocation-budget tests run their workloads under it but skip the
// comparison with the budget: the detector's instrumentation allocates.
package race

// Enabled reports that this build has the race detector.
const Enabled = true
