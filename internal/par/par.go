// Package par holds the one fan-out loop the client's per-frame work shares:
// SIFT's per-candidate orientation and descriptor passes and the oracle's
// per-keypoint uniqueness scores.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls fn(i) for every i in [0, n) on up to GOMAXPROCS goroutines, the
// caller's included, and returns when all calls have. Indices are claimed
// one at a time, so a slow index does not hold up a fixed share of the
// others. fn must write only state owned by index i; a caller that stores
// result i in slot i gets the same output on any core count.
func For(n int, fn func(i int)) {
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
