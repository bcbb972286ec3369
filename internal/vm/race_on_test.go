//go:build race

package vm

// raceEnabled reports whether the test binary runs under the race
// detector, which instruments allocations and so inflates byte counts.
const raceEnabled = true
