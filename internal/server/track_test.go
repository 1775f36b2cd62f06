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
	r := newTestRouter(t, cfg, nil)
	reg := r.Registry()
	if _, err := r.Ingest(context.Background(), "", ms); err != nil {
		t.Fatal(err)
	}
	return r, reg, ms, queryFixture{kps: kps, intr: intr}
}

// rejectEveryPrior gives r a fresh session table whose residual gate no warm
// solve passes (unreachably tight floor and factor). Tests call it before
// the session queries it should govern.
func rejectEveryPrior(r *Router) {
	tcfg := track.DefaultConfig()
	tcfg.AcceptResidual = 1e-12
	tcfg.AcceptFactor = 1e-9
	r.trk = track.New(tcfg)
	r.trk.Instrument(r.Registry())
}

type queryFixture struct {
	kps  []sift.Keypoint
	intr pose.Intrinsics
}

// venueWideLocate answers a session-less query with the venue-wide search
// alone: cfg.Pose verbatim over the whole venue box, no hypothesis prior. A
// warmSolve carrying the cold options and no residual gate is exactly that
// search (see solve) — the baseline the warm and the seeded cold paths are
// measured against.
func venueWideLocate(t *testing.T, r *Router, venue string, kps []sift.Keypoint, intr pose.Intrinsics) LocateResult {
	t.Helper()
	res, _, err := locateShards(context.Background(), r.met, r.lookup(venue).shards, kps, intr, &warmSolve{opt: r.cfg.Pose})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLocateSessionWarmAcceptance: the second query of a session must be
// answered by an accepted warm solve that consumes no more DE generations
// than the venue-wide search, and the session metrics must record it. (The
// seeded cold solve of the first query may use fewer than either.)
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
	if wide := venueWideLocate(t, r, "", q.kps, q.intr); warm.Generations > wide.Generations {
		t.Fatalf("warm solve used %d generations, the venue-wide search %d", warm.Generations, wide.Generations)
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
	if n := r.trk.Len(); n != 0 {
		t.Fatalf("sid 0 created %d session(s)", n)
	}
}

// TestLocateSessionRejectedPriorBitIdentical is the headline fallback
// guarantee: when the residual gate rejects the prior, the cold re-solve
// over the same candidates must reproduce the session-less Locate answer
// down to the float bits.
func TestLocateSessionRejectedPriorBitIdentical(t *testing.T) {
	r, reg, _, q := trackFixture(t)
	rejectEveryPrior(r)
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
	reg := r.Registry()
	ctx := context.Background()
	const sid = 55

	if _, err := r.LocateSession(ctx, venueName, sid, kps, intr); err != nil {
		t.Fatal(err)
	}
	warm, err := r.LocateSession(ctx, venueName, sid, kps, intr)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("track_warm").Value(); got != 1 {
		t.Fatalf("track_warm = %d, want 1", got)
	}
	if wide := venueWideLocate(t, r, venueName, kps, intr); warm.Generations > wide.Generations {
		t.Fatalf("sharded warm solve used %d generations, the venue-wide search %d", warm.Generations, wide.Generations)
	}

	// Rejected prior on the sharded path must still equal the one-shard
	// cold answer bit for bit (the existing scatter-gather guarantee).
	rejectEveryPrior(r)
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
	if n := r.trk.Len(); n != 1 {
		t.Fatalf("Len = %d after first session query, want 1", n)
	}
	r.EndSession("", sid)
	if n := r.trk.Len(); n != 0 {
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

// walkFrame is one frame of the synthetic walk: the true camera and the
// query it captures.
type walkFrame struct {
	cam  mathx.Vec3
	kps  []sift.Keypoint
	intr pose.Intrinsics
}

// walkFixture ingests the walk corpus into a router and returns the walk: a
// camera passing the slab at 0.8 m/s, one query per 50 ms frame. The solver
// keeps its default generation budget: the test config's cap would clip the
// venue-wide baseline the walks are measured against.
func walkFixture(t *testing.T) (*Router, *obs.Registry, []walkFrame) {
	t.Helper()
	cfg := routerTestConfig()
	cfg.Pose.MaxIterations = pose.DefaultOptions().MaxIterations
	const (
		clusterN, queryN = 160, 200
		frames           = 20
		stepM            = 0.08
	)
	ms, _, _ := syntheticCorpus(7, clusterN, 500, queryN)
	r := newTestRouter(t, cfg, nil)
	if _, err := r.Ingest(context.Background(), "", ms); err != nil {
		t.Fatal(err)
	}
	walk := make([]walkFrame, frames)
	for f := range walk {
		cam := mathx.Vec3{X: 4 + stepM*(float64(f)-float64(frames-1)/2), Y: 1.4, Z: 2}
		kps, intr := syntheticQuery(ms, clusterN, queryN, cam)
		walk[f] = walkFrame{cam: cam, kps: kps, intr: intr}
	}
	return r, r.Registry(), walk
}

// walkStats solves every frame with locate and returns the total
// generations and the median position error.
func walkStats(t *testing.T, walk []walkFrame, locate func(f int, w walkFrame) LocateResult) (int, float64) {
	t.Helper()
	gens, errs := 0, make([]float64, len(walk))
	for f, w := range walk {
		res := locate(f, w)
		gens += res.Generations
		errs[f] = res.Position.Dist(w.cam)
	}
	sort.Float64s(errs)
	return gens, errs[len(errs)/2]
}

// TestSessionWalkWarmSaves is the acceptance regression for the tracking
// subsystem: a camera walks past the slab at 0.8 m/s, one query per frame,
// and the same frames are solved by the venue-wide search (the warm path's
// baseline, which the cold solve still falls back to) and warm (one
// session). The warm pass must consume at most half the venue-wide pass's
// DE generations with median pose error no worse, its first frame (no prior
// yet) must be the only cold solve, and no prior may be rejected.
func TestSessionWalkWarmSaves(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second solver workload")
	}
	r, reg, walk := walkFixture(t)
	ctx := context.Background()
	// The motion model reads the server's clock, so the walk is paced like
	// the capture it stands for; back to back, a 0.08 m step would look like
	// a sprint and trip the MaxSpeed clamp.
	const frameDt = 50 * time.Millisecond
	frames := len(walk)

	wideGens, wideErr := walkStats(t, walk, func(_ int, w walkFrame) LocateResult {
		return venueWideLocate(t, r, "", w.kps, w.intr)
	})
	start := time.Now()
	warmGens, warmErr := walkStats(t, walk, func(f int, w walkFrame) LocateResult {
		time.Sleep(time.Until(start.Add(time.Duration(f) * frameDt)))
		res, err := r.LocateSession(ctx, "", 1, w.kps, w.intr)
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		return res
	})
	t.Logf("generations/frame: venue-wide %.1f, warm %.1f; median error: venue-wide %.4f m, warm %.4f m",
		float64(wideGens)/float64(frames), float64(warmGens)/float64(frames), wideErr, warmErr)
	if ratio := float64(warmGens) / float64(wideGens); ratio > 0.5 {
		t.Errorf("warm/cold generation ratio = %.3f (warm %d, cold %d), want <= 0.5", ratio, warmGens, wideGens)
	}
	if warmErr > wideErr {
		t.Errorf("warm median error %.4f m worse than cold %.4f m", warmErr, wideErr)
	}
	if got := reg.Counter("track_warm").Value(); got != uint64(frames-1) {
		t.Errorf("track_warm = %d, want %d", got, frames-1)
	}
	if got := reg.Counter("track_cold").Value(); got != 1 {
		t.Errorf("track_cold = %d, want 1 (the first frame only)", got)
	}
	if got := reg.Counter("track_prior_rejected").Value(); got != 0 {
		t.Errorf("track_prior_rejected = %d, want 0", got)
	}
}

// TestSessionlessLocateSeededSaves: on the walk of TestSessionWalkWarmSaves,
// a session-less Locate — the seeded cold solve, hypothesis scoring included
// — spends at most half the venue-wide search's objective evaluations at an
// equal or better median error. Generations is evaluations over the
// configured population, rounded down; the seeded side is counted one
// generation high per frame so the rounding cannot flatter it.
func TestSessionlessLocateSeededSaves(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second solver workload")
	}
	r, _, walk := walkFixture(t)
	ctx := context.Background()
	wideGens, wideErr := walkStats(t, walk, func(_ int, w walkFrame) LocateResult {
		return venueWideLocate(t, r, "", w.kps, w.intr)
	})
	seededGens, seededErr := walkStats(t, walk, func(f int, w walkFrame) LocateResult {
		res, err := r.Locate(ctx, "", w.kps, w.intr)
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		return res
	})
	seededGens += len(walk)
	t.Logf("generations/frame: venue-wide %.1f, seeded <= %.1f; median error: venue-wide %.4f m, seeded %.4f m",
		float64(wideGens)/float64(len(walk)), float64(seededGens)/float64(len(walk)), wideErr, seededErr)
	if 2*seededGens > wideGens {
		t.Errorf("seeded cold solves used <= %d generations of evaluations, venue-wide %d: want <= 50 %%", seededGens, wideGens)
	}
	if seededErr > wideErr {
		t.Errorf("seeded median error %.4f m worse than venue-wide %.4f m", seededErr, wideErr)
	}
}
