//go:build race

package parallel

// raceEnabled reports whether the test binary runs under the race
// detector, which instruments allocations and so inflates their counts.
const raceEnabled = true
