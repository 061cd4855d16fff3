//go:build race

package host

// raceEnabled marks builds instrumented by the race detector, whose
// bookkeeping allocates on paths that otherwise do not, so allocation
// budgets do not hold under it.
const raceEnabled = true
