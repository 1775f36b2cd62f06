package server

// Continuous localization sessions: the server-side tracking layer that
// turns repeat Locates from one device into warm solves.
//
// A client that localizes continuously (an AR session walking a venue)
// attaches a random non-zero session ID to its queries (request header). The
// Router keeps a bounded, TTL-evicted table of recent fixes per session
// (internal/track) and, when a new query arrives for a known session,
// predicts the camera position with a constant-velocity model and hands
// it to the warm pose solve (pose.LocalizeWarm): a Nelder–Mead refinement
// started at the prediction inside a box of the prior's radius around it.
// Accepted warm solves take a fraction of the cold solve's evaluations. A
// residual gate guards against a wrong prior (tracking loss, teleport,
// venue re-entry): if the warm solve's mean residual is above the
// acceptance threshold, or the prior's box lies outside the venue, the
// query is re-solved cold over the same gathered candidates — bit-identical to what a session-less
// Locate would have returned (pinned by
// TestLocateSessionRejectedPriorBitIdentical). The warm-then-cold
// sequencing lives in the shared solve tail (solve, in database.go), the
// warm policy in internal/pose; this file owns the session bookkeeping.

import (
	"context"
	"encoding/binary"
	"time"

	"visualprint/internal/hash"
	"visualprint/internal/obs"
	"visualprint/internal/pose"
	"visualprint/internal/sift"
	"visualprint/internal/track"
)

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

// Locate answers a localization query against a venue with the paper's
// server-side pipeline: LSH candidate retrieval for each uploaded keypoint
// (across a bounded worker pool on large queries), spatial clustering of the
// candidate 3D points, largest-cluster filtering, and the Figure 12 pose
// optimization over the surviving correspondences. Failures are the typed
// sentinels ErrEmptyDatabase (also for a venue that was never ingested),
// ErrTooFewMatches and ErrNoConsensus. The context is checked at every stage
// boundary and inside the pose solve, so a canceled or expired request stops
// burning CPU mid-pipeline and answers ErrCanceled or ErrDeadlineExceeded
// (which also match context.Canceled and context.DeadlineExceeded under
// errors.Is).
func (r *Router) Locate(ctx context.Context, venueName string, kps []sift.Keypoint, intr pose.Intrinsics) (LocateResult, error) {
	return r.LocateSession(ctx, venueName, 0, kps, intr)
}

// LocateSession is Locate with continuous-localization tracking: sid == 0
// is plain Locate (no session state is read or written); a non-zero sid
// looks up the session's motion-model prior, warm-starts the pose solve
// with it, and records the accepted fix back into the session history.
//
// A NewDefaultVenueRouter refuses a named venue with ErrVenueNotReplicated.
//
// This is the one Locate route: look the venue up and run locateShards on
// its shards with the optional prior ("router affinity": the prior applies
// after the gather, so any shard topology reuses it).
func (r *Router) LocateSession(ctx context.Context, venueName string, sid uint64, kps []sift.Keypoint, intr pose.Intrinsics) (LocateResult, error) {
	if err := r.admit(venueName); err != nil {
		return LocateResult{}, err
	}
	v := r.lookup(venueName)
	if v == nil {
		return LocateResult{}, ErrEmptyDatabase
	}
	v.locates.Inc()
	var (
		key   uint64
		now   time.Time
		prior *track.Prior
	)
	if sid != 0 {
		key, now = sessionKey(venueName, sid), r.now()
		if p, ok := r.trk.Predict(key, now); ok {
			prior = &p
		}
	}
	res, warm, err := locateShards(ctx, r.met, v.shards, kps, intr, prior)
	if err != nil || sid == 0 {
		return res, err
	}
	r.trk.Observe(key, res.Position, res.Residual, now)
	if prior != nil {
		r.tm.priorErrMM.Observe(int64(prior.Pos.Dist(res.Position) * 1000))
	}
	if warm {
		r.tm.warm.Inc()
		r.tm.warmGens.Observe(int64(res.Generations))
	} else {
		r.tm.cold.Inc()
		r.tm.coldGens.Observe(int64(res.Generations))
		if prior != nil {
			r.tm.rejected.Inc()
		}
	}
	return res, nil
}
