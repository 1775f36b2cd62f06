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
// The warm-then-cold sequencing lives in the shared solve tail (solve, in
// database.go); this file owns the prior, the gate and the bookkeeping.

import (
	"context"
	"encoding/binary"
	"math"
	"time"

	"visualprint/internal/hash"
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

// trackMetrics is the Router's session-tracking instrument set, built by
// NewRouter.
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

// sessionKey hashes (venue, session ID) into the session table's key, so the
// same device ID tracked in two venues keeps two independent histories.
func sessionKey(venueName string, sid uint64) uint64 {
	var buf [8 + maxVenueName]byte
	binary.LittleEndian.PutUint64(buf[:], sid)
	n := copy(buf[8:], venueName)
	return hash.Sum64(buf[:8+n], 0x7a5e)
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

// Locate answers a localization query against a venue. A venue that was
// never ingested returns ErrEmptyDatabase.
func (r *Router) Locate(ctx context.Context, venueName string, kps []sift.Keypoint, intr pose.Intrinsics) (LocateResult, error) {
	return r.LocateSession(ctx, venueName, 0, kps, intr)
}

// LocateSession is Locate with continuous-localization tracking: sid == 0
// is plain Locate (no session state is read or written); a non-zero sid
// looks up the session's motion-model prior, warm-starts the pose solve
// with it, and records the accepted fix back into the session history.
//
// This is the one Locate route: look the venue up and run locateShards on
// its shards with the optional prior ("router affinity": the prior applies
// after the gather, so any shard topology reuses it).
func (r *Router) LocateSession(ctx context.Context, venueName string, sid uint64, kps []sift.Keypoint, intr pose.Intrinsics) (LocateResult, error) {
	v := r.lookup(venueName)
	if v == nil {
		return LocateResult{}, ErrEmptyDatabase
	}
	v.locates.Inc()
	var (
		key       uint64
		now       time.Time
		prior     track.Prior
		havePrior bool
		ws        *warmSolve
	)
	if sid != 0 {
		key, now = sessionKey(venueName, sid), time.Now()
		if prior, havePrior = r.trk.Predict(key, now); havePrior {
			tcfg := r.trk.Config()
			ws = &warmSolve{
				opt:    warmPoseOptions(r.cfg.Pose, prior, tcfg),
				accept: warmAccept(prior, tcfg),
			}
		}
	}
	res, warm, err := locateShards(ctx, r.met, v.shards, kps, intr, ws)
	if err != nil || sid == 0 {
		return res, err
	}
	r.trk.Observe(key, res.Position, res.Yaw, res.Residual, now)
	if havePrior {
		r.tm.priorErrMM.Observe(int64(prior.Pos.Dist(res.Position) * 1000))
	}
	if warm {
		r.tm.warm.Inc()
		r.tm.warmGens.Observe(int64(res.Generations))
	} else {
		r.tm.cold.Inc()
		r.tm.coldGens.Observe(int64(res.Generations))
		if havePrior {
			r.tm.rejected.Inc()
		}
	}
	return res, nil
}

// EndSession drops a session's tracking state (the client told us it is
// done; the table would TTL it out anyway).
func (r *Router) EndSession(venueName string, sid uint64) {
	if sid == 0 {
		return
	}
	r.trk.Forget(sessionKey(venueName, sid))
}
