package server

// Continuous localization sessions: the server-side tracking layer that
// turns repeat Locates from one device into warm solves.
//
// A client that localizes continuously (an AR session walking a venue)
// attaches a random non-zero session ID to its queries (request header). The
// Router keeps a bounded, TTL-evicted table of recent fixes per session
// (internal/track) and, when a new query arrives for a known session,
// predicts the camera position with a constant-velocity model and hands
// the DE pose solver a prior: a shrunk search box around the prediction,
// one population member pinned to it, and an absolute early-convergence
// stop. Accepted warm solves converge in a fraction of the cold solve's
// generations. A residual gate guards against a wrong prior (tracking
// loss, teleport, venue re-entry): if the warm solve's mean residual is
// above the acceptance threshold, the query is re-solved cold over the
// same gathered candidates — bit-identical to what a session-less Locate
// would have returned (pinned by TestLocateSessionRejectedPriorBitIdentical).
//
// Warm-solve *errors* are returned without a cold retry: every error the
// solve tail can produce (ErrTooFewMatches, clustering failure,
// ErrNoConsensus, context cancellation) fires before the pose options are
// consulted, so the cold solve would fail identically.

import (
	"context"
	"math"
	"time"

	"visualprint/internal/hash"
	"visualprint/internal/mathx"
	"visualprint/internal/obs"
	"visualprint/internal/pose"
	"visualprint/internal/sift"
	"visualprint/internal/track"
)

// warmSolve carries a session's prior into the solve tail.
type warmSolve struct {
	// opt is the warm-start pose option set (prior position/radius and the
	// early-convergence stop layered onto the cold options).
	opt pose.Options
	// accept is the residual gate (mean radians per pair): a warm solve
	// above it is discarded and the query re-solved cold.
	accept float64
}

// warmPoseOptions layers a session prior onto the cold pose options: the
// shrunk search box around the prediction, the warm population-convergence
// tolerance (tighter than cold by default — polish is cheap inside the
// box), and an absolute early stop scaled from the session's best retained
// residual — set below it (WarmStopFactor < 1), so it fires only when the
// solve is clearly better than every recent fix and cannot ratchet error
// along a trajectory; WarmMinResidual floors it for near-perfect corpora.
func warmPoseOptions(cold pose.Options, p track.Prior, tcfg track.Config) pose.Options {
	cold.PriorPos = p.Pos
	cold.PriorRadius = p.Radius
	cold.MinResidual = math.Max(tcfg.WarmMinResidual, p.Residual*tcfg.WarmStopFactor)
	if tcfg.WarmTol > 0 {
		cold.Tol = tcfg.WarmTol
	}
	return cold
}

// warmAccept computes the residual acceptance gate for a prior: at least
// the configured floor, at least the session's best retained residual
// with slack.
func warmAccept(p track.Prior, tcfg track.Config) float64 {
	return math.Max(tcfg.AcceptResidual, p.Residual*tcfg.AcceptFactor)
}

// trackMetrics is the Router's session-tracking instrument set. The zero
// value (all nil) is a no-op via obs's nil-receiver safety, so the hot
// path records unconditionally.
type trackMetrics struct {
	warm     *obs.Counter // accepted warm solves
	cold     *obs.Counter // session queries solved cold (no prior, or rejected)
	rejected *obs.Counter // priors that failed the residual gate
	warmGens *obs.Histogram
	coldGens *obs.Histogram
	// priorErrMM records |predicted - solved| in millimeters — the motion
	// model's accuracy as seen by accepted and rejected priors alike.
	priorErrMM *obs.Histogram
}

// trackState bundles the session table with its metrics so both swap
// atomically under ConfigureTracking / instrument.
type trackState struct {
	tb *track.Table
	tm trackMetrics
}

// Database.locateWarm is Locate with a session prior: candidates are
// gathered once, the warm solve runs first, and a rejected prior falls
// back to the cold solve over the same candidate list (bit-identical to
// plain Locate on this view). The bool reports warm acceptance.
func (db *Database) locateWarm(ctx context.Context, kps []sift.Keypoint, intr pose.Intrinsics, ws warmSolve) (LocateResult, bool, error) {
	v, t := db.pinView()
	defer db.unpin(v, t)
	m := db.metrics()
	tr := m.trace.Begin("locate")
	res, warm, err := db.locateViewWarm(ctx, v, kps, intr, tr, ws)
	m.locateNs.Observe(m.trace.End(tr))
	m.locates.Inc()
	if err != nil {
		m.locateErrors.Inc()
	}
	return res, warm, err
}

func (db *Database) locateViewWarm(ctx context.Context, v *dbView, kps []sift.Keypoint, intr pose.Intrinsics, tr *obs.Trace, ws warmSolve) (LocateResult, bool, error) {
	if len(v.positions) == 0 {
		return LocateResult{}, false, ErrEmptyDatabase
	}
	if err := ctx.Err(); err != nil {
		return LocateResult{}, false, ctxError(err)
	}
	t0 := time.Now()
	cands, err := db.gatherCandidates(ctx, v, kps)
	tr.StageSince(obs.StageLSHQuery, t0)
	if err != nil {
		return LocateResult{}, false, ctxError(err)
	}
	return solveWarmThenCold(ctx, db.cfg, cands, v.lo, v.hi, intr, tr, ws)
}

// solveWarmThenCold runs the warm solve, gates it, and re-solves cold over
// the same candidates when the prior is rejected.
func solveWarmThenCold(ctx context.Context, cfg DatabaseConfig, cands []locateCand, lo, hi mathx.Vec3, intr pose.Intrinsics, tr *obs.Trace, ws warmSolve) (LocateResult, bool, error) {
	res, err := solveCandidatesOpt(ctx, cfg, cands, lo, hi, intr, tr, ws.opt)
	if err != nil {
		// Prior-independent failure (see package comment): cold would fail
		// the same way, so don't burn a second solve.
		return res, false, err
	}
	if ws.accept <= 0 || res.Residual <= ws.accept {
		return res, true, nil
	}
	// Rejected prior: the cold re-solve consumes exactly the session-less
	// inputs (same candidates, bounds, cfg.Pose), so the result is
	// bit-identical to plain Locate on the same view.
	res, err = solveCandidates(ctx, cfg, cands, lo, hi, intr, tr)
	return res, false, err
}

// sessionKey folds the venue name into the wire session ID so the same
// device ID tracked in two venues keeps two independent histories.
func sessionKey(venueName string, sid uint64) uint64 {
	if venueName == "" {
		return sid
	}
	return sid ^ hash.Sum64([]byte(venueName), 0x7a5e)
}

// trackStatePtr returns the router's current tracking state (never nil
// after NewRouter).
func (r *Router) trackState() *trackState {
	return r.trk.Load()
}

// ConfigureTracking replaces the router's session table with one built
// from cfg. Call it before serving: queries racing the swap may observe
// either table, and sessions recorded in the old one are forgotten.
func (r *Router) ConfigureTracking(cfg track.Config) {
	st := &trackState{tb: track.New(cfg)}
	r.mu.Lock()
	if r.reg != nil {
		st.tb.Instrument(r.reg)
		st.tm = newTrackMetrics(r.reg)
	}
	r.trk.Store(st)
	r.mu.Unlock()
}

func newTrackMetrics(reg *obs.Registry) trackMetrics {
	return trackMetrics{
		warm:       reg.Counter("track_warm"),
		cold:       reg.Counter("track_cold"),
		rejected:   reg.Counter("track_prior_rejected"),
		warmGens:   reg.Histogram("track_warm_generations"),
		coldGens:   reg.Histogram("track_cold_generations"),
		priorErrMM: reg.Histogram("track_prior_error_mm"),
	}
}

// LocateSession is Locate with continuous-localization tracking: sid == 0
// is exactly Locate (no session state is read or written); a non-zero sid
// looks up the session's motion-model prior, warm-starts the pose solve
// with it, and records the accepted fix back into the session history.
func (r *Router) LocateSession(ctx context.Context, venueName string, sid uint64, kps []sift.Keypoint, intr pose.Intrinsics) (LocateResult, error) {
	if sid == 0 {
		return r.Locate(ctx, venueName, kps, intr)
	}
	st := r.trackState()
	now := time.Now()
	key := sessionKey(venueName, sid)
	prior, havePrior := st.tb.Predict(key, now)
	var ws *warmSolve
	if havePrior {
		tcfg := st.tb.Config()
		ws = &warmSolve{
			opt:    warmPoseOptions(r.cfg.Pose, prior, tcfg),
			accept: warmAccept(prior, tcfg),
		}
	}
	res, warm, err := r.locateMaybeWarm(ctx, venueName, kps, intr, ws)
	if err != nil {
		return res, err
	}
	st.tb.Observe(key, res.Position, res.Yaw, res.Residual, now)
	if havePrior {
		st.tm.priorErrMM.Observe(int64(prior.Pos.Dist(res.Position) * 1000))
	}
	if warm {
		st.tm.warm.Inc()
		st.tm.warmGens.Observe(int64(res.Generations))
	} else {
		st.tm.cold.Inc()
		st.tm.coldGens.Observe(int64(res.Generations))
		if havePrior {
			st.tm.rejected.Inc()
		}
	}
	return res, nil
}

// EnableTrackingObs instruments the router — venue gauges plus the
// tracking subsystem's counters and histograms — on the default
// database's registry, enabling observability if nothing has yet, and
// returns the registry. Serve does this automatically for networked
// servers; in-process users (benchmarks, library embedders) opt in here.
func (r *Router) EnableTrackingObs() *obs.Registry {
	reg := r.def.EnableObs()
	r.instrument(reg)
	return reg
}

// TrackingStats is a point-in-time report of the session-tracking
// subsystem: solve-outcome counters and the live session count. The
// counters read zero until the router is instrumented (Serve does it;
// in-process, EnableTrackingObs).
type TrackingStats struct {
	// Warm counts session queries answered by an accepted warm-started
	// solve; Cold counts full solves (no prior, or sid 0 never counts);
	// Rejected counts warm solves that failed the residual gate and were
	// re-run cold (a subset of Cold).
	Warm, Cold, Rejected uint64
	// Sessions is the number of live tracked sessions.
	Sessions int
}

// TrackingStats reports the tracking subsystem's current counters.
func (r *Router) TrackingStats() TrackingStats {
	st := r.trackState()
	return TrackingStats{
		Warm:     st.tm.warm.Value(),
		Cold:     st.tm.cold.Value(),
		Rejected: st.tm.rejected.Value(),
		Sessions: st.tb.Len(),
	}
}

// EndSession drops a session's tracking state (the client told us it is
// done; the table would TTL it out anyway).
func (r *Router) EndSession(venueName string, sid uint64) {
	if sid == 0 {
		return
	}
	r.trackState().tb.Forget(sessionKey(venueName, sid))
}

// locateMaybeWarm dispatches like Locate but threads an optional warm
// solve through to the shared tail. ws == nil is exactly Locate's routing.
func (r *Router) locateMaybeWarm(ctx context.Context, venueName string, kps []sift.Keypoint, intr pose.Intrinsics, ws *warmSolve) (LocateResult, bool, error) {
	if venueName == "" {
		if ws == nil {
			res, err := r.def.Locate(ctx, kps, intr)
			return res, false, err
		}
		return r.def.locateWarm(ctx, kps, intr, *ws)
	}
	v := r.lookup(venueName)
	if v == nil {
		return LocateResult{}, false, ErrEmptyDatabase
	}
	if v.locates != nil {
		v.locates.Inc()
	}
	if len(v.shards) == 1 {
		if ws == nil {
			res, err := v.shards[0].Locate(ctx, kps, intr)
			return res, false, err
		}
		return v.shards[0].locateWarm(ctx, kps, intr, *ws)
	}
	return r.locateSharded(ctx, v, kps, intr, ws)
}
