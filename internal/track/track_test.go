package track

import (
	"math"
	"os"
	"testing"
	"time"

	"visualprint/internal/mathx"
	"visualprint/internal/obs"
	"visualprint/internal/testutil"
)

// TestMain sweeps for leaked goroutines after the whole package (the table
// must run no background loops — eviction is amortized inline).
func TestMain(m *testing.M) {
	code := m.Run()
	if err := testutil.VerifyNone(); err != nil {
		os.Stderr.WriteString(err.Error() + "\n")
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

var t0 = time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)

func TestPredictUnknownSession(t *testing.T) {
	tb := New(nil)
	if _, ok := tb.Predict(42, t0); ok {
		t.Fatal("prediction for a never-observed session")
	}
}

func TestSingleFixHoldsPosition(t *testing.T) {
	tb := New(nil)
	pos := mathx.Vec3{X: 3, Y: 1.5, Z: 4}
	tb.Observe(7, pos, 0.01, t0)
	p, ok := tb.Predict(7, t0.Add(100*time.Millisecond))
	if !ok {
		t.Fatal("no prediction after one fix")
	}
	if p.Pos != pos {
		t.Fatalf("single-fix prediction moved: %+v != %+v", p.Pos, pos)
	}
	if p.Radius < baseRadius {
		t.Fatalf("radius %v below base %v", p.Radius, baseRadius)
	}
}

func TestConstantVelocityExtrapolation(t *testing.T) {
	tb := New(nil)
	// 1 m/s along +X: fixes at t0 and t0+1s, predict at t0+1.5s.
	tb.Observe(9, mathx.Vec3{X: 1, Y: 1.5, Z: 2}, 0.01, t0)
	tb.Observe(9, mathx.Vec3{X: 2, Y: 1.5, Z: 2}, 0.01, t0.Add(time.Second))
	p, ok := tb.Predict(9, t0.Add(1500*time.Millisecond))
	if !ok {
		t.Fatal("no prediction")
	}
	want := mathx.Vec3{X: 2.5, Y: 1.5, Z: 2}
	if p.Pos.Dist(want) > 1e-9 {
		t.Fatalf("predicted %+v, want %+v", p.Pos, want)
	}
	// A faster walk at the same age must widen the radius.
	tb.Observe(11, mathx.Vec3{X: 1, Y: 1.5, Z: 2}, 0.01, t0)
	tb.Observe(11, mathx.Vec3{X: 3.5, Y: 1.5, Z: 2}, 0.01, t0.Add(time.Second))
	q, ok := tb.Predict(11, t0.Add(1500*time.Millisecond))
	if !ok {
		t.Fatal("no prediction for fast walker")
	}
	if q.Radius <= p.Radius {
		t.Fatalf("faster motion did not widen radius: %v <= %v", q.Radius, p.Radius)
	}
}

func TestSpeedClampAndRadiusCap(t *testing.T) {
	tb := New(nil)
	// A 100 m jump in 100 ms — corrupt or teleporting. Speed clamps to
	// maxSpeed, so extrapolation stays bounded.
	tb.Observe(5, mathx.Vec3{}, 0.01, t0)
	tb.Observe(5, mathx.Vec3{X: 100}, 0.01, t0.Add(100*time.Millisecond))
	p, ok := tb.Predict(5, t0.Add(1100*time.Millisecond))
	if !ok {
		t.Fatal("no prediction")
	}
	maxDrift := maxSpeed*1.0 + 1e-9
	if d := p.Pos.Dist(mathx.Vec3{X: 100}); d > maxDrift {
		t.Fatalf("clamped extrapolation drifted %v m (> %v)", d, maxDrift)
	}
	if p.Radius > maxRadius {
		t.Fatalf("radius %v above cap %v", p.Radius, maxRadius)
	}
}

func TestPredictionAgeCutoff(t *testing.T) {
	tb := New(nil)
	tb.Observe(3, mathx.Vec3{X: 1}, 0.01, t0)
	if _, ok := tb.Predict(3, t0.Add(maxPredictAge+time.Millisecond)); ok {
		t.Fatal("prediction from a stale fix")
	}
}

// sameShardIDs returns n session IDs that shardFor maps to one shard.
func sameShardIDs(tb *Table, n int) []uint64 {
	sh := tb.shardFor(1)
	ids := make([]uint64, 0, n)
	for id := uint64(1); len(ids) < n; id++ {
		if tb.shardFor(id) == sh {
			ids = append(ids, id)
		}
	}
	return ids
}

func TestTTLExpiry(t *testing.T) {
	reg := obs.NewRegistry()
	tb := New(reg)
	tb.Observe(1, mathx.Vec3{}, 0.01, t0)
	tb.Observe(2, mathx.Vec3{}, 0.01, t0)
	if n := tb.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
	// At the TTL a session is idle but not yet expired.
	if n := tb.ExpireIdle(t0.Add(ttl)); n != 0 {
		t.Fatalf("ExpireIdle at the TTL removed %d, want 0", n)
	}
	// Access after TTL: the expired session is dropped, not predicted.
	past := t0.Add(ttl + time.Millisecond)
	if _, ok := tb.Predict(1, past); ok {
		t.Fatal("prediction from an expired session")
	}
	if n := tb.ExpireIdle(past); n != 1 {
		t.Fatalf("ExpireIdle removed %d, want 1", n)
	}
	if n := tb.Len(); n != 0 {
		t.Fatalf("Len = %d after expiry, want 0", n)
	}
	if v := reg.Gauge("track_sessions").Value(); v != 0 {
		t.Fatalf("track_sessions gauge %d, want 0", v)
	}
	if v := reg.Counter("track_expired").Value(); v != 2 {
		t.Fatalf("track_expired %d, want 2", v)
	}
}

func TestCapacityEvictsLRU(t *testing.T) {
	reg := obs.NewRegistry()
	tb := New(reg)
	// Fill one shard to its share of the capacity; the next session on it
	// evicts the least recent.
	ids := sameShardIDs(tb, perShard+1)
	for i, id := range ids[:perShard] {
		tb.Observe(id, mathx.Vec3{}, 0.01, t0.Add(time.Duration(i)*time.Millisecond))
	}
	// Touch the first so the second becomes the LRU victim.
	at := t0.Add(time.Duration(perShard) * time.Millisecond)
	if _, ok := tb.Predict(ids[0], at); !ok {
		t.Fatal("first session missing")
	}
	tb.Observe(ids[perShard], mathx.Vec3{}, 0.01, at.Add(time.Millisecond))
	if n := tb.Len(); n != perShard {
		t.Fatalf("Len = %d, want %d", n, perShard)
	}
	at = at.Add(2 * time.Millisecond)
	if _, ok := tb.Predict(ids[1], at); ok {
		t.Fatal("LRU session survived eviction")
	}
	if _, ok := tb.Predict(ids[0], at); !ok {
		t.Fatal("recently-touched session was evicted")
	}
	if v := reg.Counter("track_evicted").Value(); v != 1 {
		t.Fatalf("track_evicted %d, want 1", v)
	}
}

func TestHistoryRingWraps(t *testing.T) {
	tb := New(nil)
	// Walk +X at 1 m/s. The first two fixes carry the best residual; the
	// prior's residual is the minimum over the retained fixes, so it stays
	// theirs until history fixes have followed them.
	for i := 0; i < history+2; i++ {
		res := 0.01
		if i < 2 {
			res = 0.001
		}
		at := t0.Add(time.Duration(i) * time.Second)
		tb.Observe(8, mathx.Vec3{X: float64(i)}, res, at)
		p, ok := tb.Predict(8, at.Add(500*time.Millisecond))
		if !ok {
			t.Fatalf("fix %d: no prediction", i)
		}
		if i > 0 && math.Abs(p.Pos.X-(float64(i)+0.5)) > 1e-9 {
			t.Fatalf("fix %d: predicted X %v, want %v", i, p.Pos.X, float64(i)+0.5)
		}
		want := 0.001
		if i >= history+1 {
			want = 0.01
		}
		if p.Residual != want {
			t.Fatalf("fix %d: prior residual %v, want %v", i, p.Residual, want)
		}
	}
}
