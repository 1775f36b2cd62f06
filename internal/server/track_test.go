package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"visualprint/internal/mathx"
	"visualprint/internal/obs"
	"visualprint/internal/pose"
	"visualprint/internal/sift"
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

// farCam is a camera 3 m along X from the fixtures' standard camera
// (4, 1.4, 2): farther than the motion model's largest prior radius, so a
// session whose last fix was taken from the standard camera gets a prior box
// that excludes it, and the residual gate rejects the warm answer.
var farCam = mathx.Vec3{X: 1, Y: 1.4, Z: 2}

type queryFixture struct {
	kps  []sift.Keypoint
	intr pose.Intrinsics
}

// venueWideLocate answers a session-less query with the venue-wide search
// alone: pose.LocalizeContext with cfg.Pose over the correspondences and
// the search box solve builds, no hypothesis prior — the baseline the warm
// and the seeded cold paths are measured against, and the search the
// seeded solve falls back to.
func venueWideLocate(t *testing.T, r *Router, venue string, kps []sift.Keypoint, intr pose.Intrinsics) LocateResult {
	t.Helper()
	ctx := context.Background()
	shards := r.lookup(venue).shards
	views := make([]*dbView, len(shards))
	var lo, hi mathx.Vec3
	bounded := false
	for i, sh := range shards {
		views[i] = sh.cur.Load()
		if views[i].hasBounds {
			growBounds(&lo, &hi, &bounded, views[i].lo, views[i].hi)
		}
	}
	cands, err := gather(ctx, views, kps, neighborsPerKeypoint, maxMatchDistSq, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	corr, err := correspondences(ctx, cands, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pose.LocalizeContext(ctx, corr, intr, lo.Sub(searchPad), hi.Add(searchPad), r.cfg.Pose)
	if err != nil {
		t.Fatal(err)
	}
	return locateResult(res, len(corr))
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
// guarantee: when the residual gate rejects the prior — here the device
// reappears 3 m from its last fix — the cold re-solve over the same
// candidates must reproduce the session-less Locate answer down to the
// float bits.
func TestLocateSessionRejectedPriorBitIdentical(t *testing.T) {
	r, reg, ms, q := trackFixture(t)
	far, _ := syntheticQuery(ms, 160, 200, farCam)
	ctx := context.Background()
	const sid = 31

	if _, err := r.LocateSession(ctx, "", sid, q.kps, q.intr); err != nil {
		t.Fatal(err)
	}
	fell, errS := r.LocateSession(ctx, "", sid, far, q.intr)
	plain, errP := r.Locate(ctx, "", far, q.intr)
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

	// A rejected prior on the sharded path (the device reappears 3 m away)
	// must still equal the one-shard cold answer bit for bit (the existing
	// scatter-gather guarantee).
	far, _ := syntheticQuery(ms, 160, 200, farCam)
	fell, errS := r.LocateSession(ctx, venueName, sid, far, intr)
	rs, errR := r.Locate(ctx, "", far, intr)
	requireBitIdentical(t, rs, errR, fell, errS)
	if got := reg.Counter("track_prior_rejected").Value(); got != 1 {
		t.Fatalf("track_prior_rejected = %d, want 1", got)
	}
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

// walkFrame is one frame of the synthetic walk: the true camera and the
// query it captures.
type walkFrame struct {
	cam  mathx.Vec3
	kps  []sift.Keypoint
	intr pose.Intrinsics
}

// walkFixture ingests the walk corpus into a router and returns the walk: a
// camera passing the slab at 0.8 m/s, one query per 50 ms frame. capture is
// the frame a camera anywhere else takes of the same corpus.
func walkFixture(t *testing.T) (r *Router, reg *obs.Registry, walk []walkFrame, capture func(cam mathx.Vec3) walkFrame) {
	t.Helper()
	cfg := routerTestConfig()
	const (
		clusterN, queryN = 160, 200
		frames           = 20
		stepM            = 0.08
	)
	ms, _, _ := syntheticCorpus(7, clusterN, 500, queryN)
	r = newTestRouter(t, cfg, nil)
	if _, err := r.Ingest(context.Background(), "", ms); err != nil {
		t.Fatal(err)
	}
	capture = func(cam mathx.Vec3) walkFrame {
		kps, intr := syntheticQuery(ms, clusterN, queryN, cam)
		return walkFrame{cam: cam, kps: kps, intr: intr}
	}
	walk = make([]walkFrame, frames)
	for f := range walk {
		walk[f] = capture(mathx.Vec3{X: 4 + stepM*(float64(f)-float64(frames-1)/2), Y: 1.4, Z: 2})
	}
	return r, r.Registry(), walk, capture
}

// frameDt is the walks' frame period. The motion model reads the router's
// session clock, so a walk sets that clock to its frame's time: walked back
// to back, a 0.08 m step would look like a sprint and trip the speed clamp,
// and walked on the wall clock the prior box would widen with every
// millisecond a slow solve takes.
const frameDt = 50 * time.Millisecond

// atFrame sets r's session clock to frame f of a walk.
func atFrame(r *Router, f int) {
	at := time.Unix(1_700_000_000, 0).Add(time.Duration(f) * frameDt)
	r.now = func() time.Time { return at }
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
	r, reg, walk, _ := walkFixture(t)
	ctx := context.Background()
	frames := len(walk)

	wideGens, wideErr := walkStats(t, walk, func(_ int, w walkFrame) LocateResult {
		return venueWideLocate(t, r, "", w.kps, w.intr)
	})
	warmGens, warmErr := walkStats(t, walk, func(f int, w walkFrame) LocateResult {
		atFrame(r, f)
		res, err := r.LocateSession(ctx, "", 1, w.kps, w.intr)
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		return res
	})
	ratio := float64(warmGens) / float64(wideGens)
	t.Logf("generations/frame: venue-wide %.1f, warm %.1f (ratio %.4f); median error: venue-wide %.4f m, warm %.4f m",
		float64(wideGens)/float64(frames), float64(warmGens)/float64(frames), ratio, wideErr, warmErr)
	if ratio > 0.5 {
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
	r, _, walk, _ := walkFixture(t)
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

// TestSessionWalkGolden pins the session path bit for bit: the walk of
// TestSessionWalkWarmSaves on the session clock, then one frame from farCam
// (a teleport the gate rejects, solved cold). The digest is SHA-256 over the
// Float64bits of every answer's position, yaw and residual, its Matched and
// Generations, then the track_* counters, the sessions gauge and the count
// and sum of the three track_* histograms, all little-endian uint64.
func TestSessionWalkGolden(t *testing.T) {
	const want = "305168f4b536a412746c49ec7d63ca43a04d1bd85f1e4438ab2c2a41c710c9a5"
	r, reg, walk, capture := walkFixture(t)
	walk = append(walk, capture(farCam))
	h := sha256.New()
	put := func(v uint64) {
		h.Write(binary.LittleEndian.AppendUint64(nil, v))
	}
	for f, w := range walk {
		atFrame(r, f)
		res, err := r.LocateSession(context.Background(), "", 1, w.kps, w.intr)
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		for _, v := range []float64{res.Position.X, res.Position.Y, res.Position.Z, res.Yaw, res.Residual} {
			put(math.Float64bits(v))
		}
		put(uint64(res.Matched))
		put(uint64(res.Generations))
	}
	for _, name := range []string{"track_warm", "track_cold", "track_prior_rejected", "track_created", "track_evicted", "track_expired"} {
		put(reg.Counter(name).Value())
	}
	put(uint64(reg.Gauge("track_sessions").Value()))
	for _, name := range []string{"track_warm_generations", "track_cold_generations", "track_prior_error_mm"} {
		put(reg.Histogram(name).Count())
		put(reg.Histogram(name).Sum())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("session walk digest %s, want %s (warm %d, cold %d, rejected %d)", got, want,
			reg.Counter("track_warm").Value(), reg.Counter("track_cold").Value(), reg.Counter("track_prior_rejected").Value())
	}
}
