package server

import (
	"context"
	"sort"
	"testing"
	"time"

	"visualprint/internal/mathx"
	"visualprint/internal/obs"
	"visualprint/internal/pose"
	"visualprint/internal/sift"
	"visualprint/internal/track"
)

// trackFixture builds an instrumented router over the synthetic corpus
// ingested into the default venue.
func trackFixture(t *testing.T) (*Router, *obs.Registry, []Mapping, queryFixture) {
	t.Helper()
	cfg := routerTestConfig()
	ms, kps, intr := syntheticCorpus(7, 160, 1200, 200)
	r := newTestRouter(t, cfg)
	reg := r.EnableObs()
	if _, err := r.Ingest(context.Background(), "", ms); err != nil {
		t.Fatal(err)
	}
	return r, reg, ms, queryFixture{kps: kps, intr: intr}
}

type queryFixture struct {
	kps  []sift.Keypoint
	intr pose.Intrinsics
}

// TestLocateSessionWarmAcceptance: the second query of a session must be
// answered by an accepted warm solve that consumes no more DE generations
// than the cold solve, and the session metrics must record it.
func TestLocateSessionWarmAcceptance(t *testing.T) {
	r, reg, _, q := trackFixture(t)
	ctx := context.Background()
	const sid = 77

	cold, err := r.LocateSession(ctx, "", sid, q.kps, q.intr)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("track_cold").Value(); got != 1 {
		t.Fatalf("track_cold = %d after first query, want 1", got)
	}
	if cold.Generations == 0 {
		t.Fatal("cold solve reported zero generations")
	}

	warm, err := r.LocateSession(ctx, "", sid, q.kps, q.intr)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("track_warm").Value(); got != 1 {
		t.Fatalf("track_warm = %d after second query, want 1", got)
	}
	if got := reg.Counter("track_prior_rejected").Value(); got != 0 {
		t.Fatalf("track_prior_rejected = %d, want 0", got)
	}
	if warm.Generations > cold.Generations {
		t.Fatalf("warm solve used %d generations, cold %d", warm.Generations, cold.Generations)
	}
	if d := warm.Position.Dist(cold.Position); d > 0.5 {
		t.Fatalf("warm pose drifted %.3f m from cold pose", d)
	}
	if reg.Gauge("track_sessions").Value() != 1 {
		t.Fatalf("track_sessions = %d, want 1", reg.Gauge("track_sessions").Value())
	}
	if h := reg.Histogram("track_prior_error_mm"); h.Count() != 1 {
		t.Fatalf("track_prior_error_mm count = %d, want 1", h.Count())
	}
}

// TestLocateSessionZeroSidBitIdentical: sid == 0 is the plain Locate path
// — bit-identical result, and no session state is created.
func TestLocateSessionZeroSidBitIdentical(t *testing.T) {
	r, _, _, q := trackFixture(t)
	ctx := context.Background()
	plain, errP := r.Locate(ctx, "", q.kps, q.intr)
	viaSession, errS := r.LocateSession(ctx, "", 0, q.kps, q.intr)
	requireBitIdentical(t, plain, errP, viaSession, errS)
	if n := r.trackState().tb.Len(); n != 0 {
		t.Fatalf("sid 0 created %d session(s)", n)
	}
}

// TestLocateSessionRejectedPriorBitIdentical is the headline fallback
// guarantee: when the residual gate rejects the prior, the cold re-solve
// over the same candidates must reproduce the session-less Locate answer
// down to the float bits.
func TestLocateSessionRejectedPriorBitIdentical(t *testing.T) {
	r, reg, _, q := trackFixture(t)
	tcfg := track.DefaultConfig()
	// Unreachably tight floor and factor: every prior is rejected.
	tcfg.AcceptResidual = 1e-12
	tcfg.AcceptFactor = 1e-9
	r.ConfigureTracking(tcfg)
	ctx := context.Background()
	const sid = 31

	if _, err := r.LocateSession(ctx, "", sid, q.kps, q.intr); err != nil {
		t.Fatal(err)
	}
	fell, errS := r.LocateSession(ctx, "", sid, q.kps, q.intr)
	plain, errP := r.Locate(ctx, "", q.kps, q.intr)
	requireBitIdentical(t, plain, errP, fell, errS)
	if got := reg.Counter("track_prior_rejected").Value(); got != 1 {
		t.Fatalf("track_prior_rejected = %d, want 1", got)
	}
	if got := reg.Counter("track_warm").Value(); got != 0 {
		t.Fatalf("track_warm = %d, want 0", got)
	}
}

// TestLocateSessionShardedWarm runs the same session flow through the
// scatter-gather path of a 4-shard venue: warm acceptance on the repeat
// query, and bit-identity with the unsharded database on prior rejection.
func TestLocateSessionShardedWarm(t *testing.T) {
	cfg := routerTestConfig()
	ms, kps, intr := syntheticCorpus(7, 160, 1200, 200)
	r, venueName := shardedFixture(t, cfg, 4, ms, 311)
	reg := r.EnableObs()
	ctx := context.Background()
	const sid = 55

	cold, err := r.LocateSession(ctx, venueName, sid, kps, intr)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := r.LocateSession(ctx, venueName, sid, kps, intr)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("track_warm").Value(); got != 1 {
		t.Fatalf("track_warm = %d, want 1", got)
	}
	if warm.Generations > cold.Generations {
		t.Fatalf("sharded warm solve used %d generations, cold %d", warm.Generations, cold.Generations)
	}

	// Rejected prior on the sharded path must still equal the one-shard
	// cold answer bit for bit (the existing scatter-gather guarantee).
	tcfg := track.DefaultConfig()
	tcfg.AcceptResidual = 1e-12
	tcfg.AcceptFactor = 1e-9
	r.ConfigureTracking(tcfg)
	if _, err := r.LocateSession(ctx, venueName, sid, kps, intr); err != nil {
		t.Fatal(err)
	}
	fell, errS := r.LocateSession(ctx, venueName, sid, kps, intr)
	rs, errR := r.Locate(ctx, "", kps, intr)
	requireBitIdentical(t, rs, errR, fell, errS)
}

// TestSessionVenueScoping: the same session ID in two venues keeps two
// independent histories (the table key folds the venue name in).
func TestSessionVenueScoping(t *testing.T) {
	if k1, k2 := sessionKey("venue-a", 9), sessionKey("venue-b", 9); k1 == k2 {
		t.Fatal("session keys collide across venues")
	}
	if k1, k2 := sessionKey("", 9), sessionKey("venue-a", 9); k1 == k2 {
		t.Fatal("default-venue session key collides with a named venue's")
	}
	if k1, k2 := sessionKey("", 9), sessionKey("", 10); k1 == k2 {
		t.Fatal("session keys collide across session IDs")
	}
}

// TestEndSessionForgets: EndSession drops the tracked state so the next
// query of the same sid is cold again.
func TestEndSessionForgets(t *testing.T) {
	r, reg, _, q := trackFixture(t)
	ctx := context.Background()
	const sid = 12
	if _, err := r.LocateSession(ctx, "", sid, q.kps, q.intr); err != nil {
		t.Fatal(err)
	}
	if n := r.trackState().tb.Len(); n != 1 {
		t.Fatalf("Len = %d after first session query, want 1", n)
	}
	r.EndSession("", sid)
	if n := r.trackState().tb.Len(); n != 0 {
		t.Fatalf("Len = %d after EndSession, want 0", n)
	}
	if _, err := r.LocateSession(ctx, "", sid, q.kps, q.intr); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("track_cold").Value(); got != 2 {
		t.Fatalf("track_cold = %d, want 2 (both queries cold)", got)
	}
	r.EndSession("", 0) // no-op
}

// TestWarmPoseOptionsLayering pins what the warm option set changes — and,
// by elimination, what it leaves alone.
func TestWarmPoseOptionsLayering(t *testing.T) {
	cold := routerTestConfig().Pose
	p := track.Prior{Pos: mathx.Vec3{X: 1, Y: 2, Z: 3}, Radius: 0.75}
	tcfg := track.DefaultConfig()
	w := warmPoseOptions(cold, p, tcfg)
	if w.PriorPos != p.Pos || w.PriorRadius != p.Radius {
		t.Fatalf("prior not threaded: %+v", w)
	}
	if w.MinResidual != tcfg.WarmMinResidual {
		t.Fatalf("MinResidual = %v, want %v", w.MinResidual, tcfg.WarmMinResidual)
	}
	if w.Tol != tcfg.WarmTol {
		t.Fatalf("Tol = %v, want the warm override %v", w.Tol, tcfg.WarmTol)
	}
	w.PriorPos, w.PriorRadius, w.MinResidual, w.Tol = cold.PriorPos, cold.PriorRadius, cold.MinResidual, cold.Tol
	if w != cold {
		t.Fatalf("warm options changed more than the prior fields:\n cold: %+v\n warm: %+v", cold, w)
	}

	// WarmTol zero (not defaulted — e.g. a hand-built Config) keeps the
	// cold tolerance.
	tcfg.WarmTol = 0
	if w := warmPoseOptions(cold, p, tcfg); w.Tol != cold.Tol {
		t.Fatalf("Tol = %v with WarmTol 0, want cold's %v", w.Tol, cold.Tol)
	}
}

// TestSessionWalkWarmSaves is the acceptance regression for the tracking
// subsystem: a camera walks past the slab at 0.8 m/s, one query per frame,
// and the same frames are solved cold (session-less) and warm (one
// session). The warm pass must consume at most half the cold pass's DE
// generations with median pose error no worse, its first frame (no prior
// yet) must be the only cold solve, and no prior may be rejected.
func TestSessionWalkWarmSaves(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second solver workload")
	}
	// The solver keeps its default generation budget: the test config's
	// cap would clip the cold baseline the ratio is measured against.
	cfg := routerTestConfig()
	cfg.Pose.MaxIterations = pose.DefaultOptions().MaxIterations
	const (
		clusterN, queryN = 160, 200
		frames           = 20
		stepM            = 0.08
		// The motion model reads the server's clock, so the walk is paced
		// like the capture it stands for; back to back, a 0.08 m step would
		// look like a sprint and trip the MaxSpeed clamp.
		frameDt = 50 * time.Millisecond
	)
	ms, _, _ := syntheticCorpus(7, clusterN, 500, queryN)
	r := newTestRouter(t, cfg)
	reg := r.EnableObs()
	ctx := context.Background()
	if _, err := r.Ingest(ctx, "", ms); err != nil {
		t.Fatal(err)
	}

	// walk solves every frame under sid and returns the mean generations
	// and the median position error.
	walk := func(sid uint64) (float64, float64) {
		t.Helper()
		gens, errs := 0, make([]float64, frames)
		start := time.Now()
		for f := 0; f < frames; f++ {
			cam := mathx.Vec3{X: 4 + stepM*(float64(f)-float64(frames-1)/2), Y: 1.4, Z: 2}
			kps, intr := syntheticQuery(ms, clusterN, queryN, cam)
			if sid != 0 {
				time.Sleep(time.Until(start.Add(time.Duration(f) * frameDt)))
			}
			res, err := r.LocateSession(ctx, "", sid, kps, intr)
			if err != nil {
				t.Fatalf("frame %d: %v", f, err)
			}
			gens += res.Generations
			errs[f] = res.Position.Dist(cam)
		}
		sort.Float64s(errs)
		return float64(gens) / frames, errs[frames/2]
	}

	coldGens, coldErr := walk(0)
	warmGens, warmErr := walk(1)
	t.Logf("generations/frame: cold %.1f, warm %.1f; median error: cold %.4f m, warm %.4f m", coldGens, warmGens, coldErr, warmErr)
	if ratio := warmGens / coldGens; ratio > 0.5 {
		t.Errorf("warm/cold generation ratio = %.3f (warm %.1f, cold %.1f), want <= 0.5", ratio, warmGens, coldGens)
	}
	if warmErr > coldErr {
		t.Errorf("warm median error %.4f m worse than cold %.4f m", warmErr, coldErr)
	}
	if got := reg.Counter("track_warm").Value(); got != frames-1 {
		t.Errorf("track_warm = %d, want %d", got, frames-1)
	}
	if got := reg.Counter("track_cold").Value(); got != 1 {
		t.Errorf("track_cold = %d, want 1 (the first frame only)", got)
	}
	if got := reg.Counter("track_prior_rejected").Value(); got != 0 {
		t.Errorf("track_prior_rejected = %d, want 0", got)
	}
}
