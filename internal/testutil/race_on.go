//go:build race

package testutil

// RaceEnabled reports whether the race detector is compiled in (see
// race_off.go).
const RaceEnabled = true
