//go:build !race

package obs

// raceEnabled is testutil.RaceEnabled, which this package's tests cannot
// import: testutil imports obs to swap the process logger.
const raceEnabled = false
