//go:build !race

package ppd

const raceEnabled = false
