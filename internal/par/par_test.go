package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForCallsEachIndexOnce(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 3, 100} {
			calls := make([]atomic.Int32, n)
			For(n, func(i int) { calls[i].Add(1) })
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Errorf("GOMAXPROCS=%d n=%d: index %d called %d times", procs, n, i, c)
				}
			}
		}
	}
}
