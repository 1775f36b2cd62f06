// Package testutil holds helpers shared by the repo's test suites.
package testutil

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// leakPrefixes identify goroutines this repo owns: anything parked in the
// server, store or obs packages after a test finishes is a leak (client
// demux loops, connection writers, accept loops, WAL committers,
// background snapshotters).
var leakPrefixes = []string{
	"visualprint/internal/server.",
	"visualprint/internal/store.",
	"visualprint/internal/obs.",
	"visualprint/internal/track.",
}

// CheckGoroutines registers a cleanup that fails the test if any
// repo-owned goroutine is still running once the test (including its
// other cleanups, e.g. Close calls registered earlier) has finished.
// Shutdown is asynchronous — Close unblocks before every goroutine has
// unwound — so the check polls briefly before declaring a leak.
//
// Call it FIRST in a test, before anything that registers Close cleanups:
// t.Cleanup runs last-in-first-out, so the leak check must be registered
// before the resources it polices are torn down.
func CheckGoroutines(tb testing.TB) {
	tb.Helper()
	tb.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		var stuck []string
		for {
			stuck = leakedGoroutines()
			if len(stuck) == 0 || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if len(stuck) > 0 {
			tb.Errorf("%d leaked goroutine(s) after test cleanup:\n%s",
				len(stuck), strings.Join(stuck, "\n\n"))
		}
	})
}

// VerifyNone reports leaked goroutines once, without polling — suitable
// for a TestMain-level final sweep. It returns an error instead of
// failing a test so TestMain can decide the exit code.
func VerifyNone() error {
	deadline := time.Now().Add(2 * time.Second)
	var stuck []string
	for {
		stuck = leakedGoroutines()
		if len(stuck) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("%d leaked goroutine(s) after all tests:\n%s",
		len(stuck), strings.Join(stuck, "\n\n"))
}

// leakedGoroutines returns the stacks of running goroutines owned by this
// repo's concurrent components.
func leakedGoroutines() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	var leaks []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if isLeak(g) {
			leaks = append(leaks, g)
		}
	}
	return leaks
}

// isLeak reports whether a goroutine stack belongs to a repo-owned
// background loop. The first line ("goroutine N [running]:") is skipped;
// test goroutines calling into these packages synchronously are not
// leaks, but they are parked in testing.* frames at check time anyway,
// because the check runs from the cleanup goroutine.
func isLeak(stack string) bool {
	if strings.Contains(stack, "testing.") || strings.Contains(stack, "testutil.") {
		return false
	}
	for _, p := range leakPrefixes {
		if strings.Contains(stack, p) {
			return true
		}
	}
	return false
}
