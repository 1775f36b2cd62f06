package testutil

import (
	"bytes"
	"sync"
	"testing"

	"visualprint/internal/obs"
)

// SilenceLog sets the process logger (obs.SetDefault) to obs.Discard for
// the rest of the test and restores the previous one when the test ends.
// No test in the repo calls t.Parallel, so the swap is never seen by
// another test.
func SilenceLog(tb testing.TB) {
	prev := obs.SetDefault(obs.Discard)
	tb.Cleanup(func() { obs.SetDefault(prev) })
}

// CaptureLog routes every process log line, at every level, into a buffer
// for the rest of the test, as SilenceLog does to obs.Discard, and returns
// a function reporting what has been logged so far.
func CaptureLog(tb testing.TB) func() string {
	buf := &lockedBuffer{}
	prev := obs.SetDefault(obs.New(buf, obs.LevelDebug))
	tb.Cleanup(func() { obs.SetDefault(prev) })
	return buf.String
}

// lockedBuffer is a bytes.Buffer that background goroutines may write
// while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
