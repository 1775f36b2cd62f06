package track

// Session-table churn under the race detector: concurrent create, locate
// (predict), observe and TTL expiry, all on one shard of the table
// and over more sessions than the shard holds, so capacity eviction and
// expiry race with reads on the same shard.
// `make chaos` runs this full-length; the normal suite (and scripts/
// verify.sh) runs the -short round.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"visualprint/internal/mathx"
	"visualprint/internal/obs"
	"visualprint/internal/testutil"
)

// TestChaosTrackChurn hammers one shard from many goroutines. The
// assertions are structural — the shard must stay within its share of the
// capacity, the sessions gauge must agree with Len, both eviction and
// expiry must fire, and nothing may deadlock or race.
func TestChaosTrackChurn(t *testing.T) {
	testutil.CheckGoroutines(t)
	reg := obs.NewRegistry()
	tb := New(reg)
	ids := sameShardIDs(tb, 4*perShard)

	workers, opsPer := 8, 4000
	if testing.Short() {
		workers, opsPer = 4, 800
	}
	base := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	// Virtual nanos: 50 µs per op, and a jump past the TTL every jumpEvery
	// ops of all workers together, counted on one shared counter so that no
	// schedule can bunch the jumps up. Whatever the interleaving, the
	// jumpEvery ops between two jumps make ~3/7 of jumpEvery Observe calls,
	// far more than the shard's perShard sessions, so it overfills
	// (evictions), and the sweeps after a jump idle out what the interval
	// left (expiries); the -short round's 3200 ops hold one jump mid-run.
	// Which op lands on a jump and which sweep sees it stays racy.
	const jumpEvery = 1600
	var virtual, ops atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				id := ids[(w*opsPer+i)%len(ids)]
				step := int64(50 * time.Microsecond)
				if ops.Add(1)%jumpEvery == 0 {
					step += int64(ttl)
				}
				now := base.Add(time.Duration(virtual.Add(step)))
				switch i % 7 {
				case 0, 1, 2:
					tb.Observe(id, mathx.Vec3{X: float64(i % 10), Y: 1.5, Z: float64(w)}, 0.01, now)
				case 3, 4, 5:
					if p, ok := tb.Predict(id, now); ok && p.Radius <= 0 {
						t.Errorf("prediction with non-positive radius %v", p.Radius)
						return
					}
				case 6:
					tb.ExpireIdle(now)
				}
				if n := tb.Len(); n > perShard {
					t.Errorf("shard grew to %d sessions (capacity %d)", n, perShard)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if n := tb.Len(); n > perShard {
		t.Fatalf("final Len %d exceeds the shard's capacity %d", n, perShard)
	}
	if reg.Counter("track_evicted").Value() == 0 || reg.Counter("track_expired").Value() == 0 {
		t.Fatalf("churn fired %d evictions and %d expiries, want both",
			reg.Counter("track_evicted").Value(), reg.Counter("track_expired").Value())
	}
	if g, n := reg.Gauge("track_sessions").Value(), tb.Len(); g != int64(n) {
		t.Fatalf("track_sessions gauge %d disagrees with Len %d", g, n)
	}
	// Everything idles out: a full sweep past the TTL from the last op must
	// empty the table and zero the gauge.
	tb.ExpireIdle(base.Add(time.Duration(virtual.Load()) + ttl + time.Nanosecond))
	if n := tb.Len(); n != 0 {
		t.Fatalf("%d sessions survived a full expiry sweep", n)
	}
	if g := reg.Gauge("track_sessions").Value(); g != 0 {
		t.Fatalf("track_sessions gauge %d after full expiry, want 0", g)
	}
}
