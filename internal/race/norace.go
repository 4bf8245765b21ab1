//go:build !race

package race

// Enabled reports that this build has the race detector.
const Enabled = false
