//go:build !race

package testutil

// RaceEnabled reports whether the race detector is compiled in. Exact
// allocation-count assertions are skipped under -race: the detector's
// shadow-memory bookkeeping and sync.Pool instrumentation allocate on
// their own, which says nothing about the production code path (the Go
// standard library skips its own alloc-count tests the same way).
const RaceEnabled = false
