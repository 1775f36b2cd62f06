// Package server implements the VisualPrint cloud service and its client
// library. The service holds the two server-side structures of the paper's
// section 3: the LSH-indexed keypoint-to-3D-position lookup table and the
// locality-sensitive Bloom filter uniqueness oracle (which clients download
// and query locally). The wire protocol is a minimal length-prefixed binary
// framing over TCP; an in-process transport (net.Pipe) serves tests.
package server

import (
	"cmp"
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"visualprint/internal/cluster"
	"visualprint/internal/core"
	"visualprint/internal/lsh"
	"visualprint/internal/mathx"
	"visualprint/internal/obs"
	"visualprint/internal/odelta"
	"visualprint/internal/pose"
	"visualprint/internal/sift"
	"visualprint/internal/store"
	"visualprint/internal/track"
)

// DatabaseConfig configures the server-side structures. The oracle's LSH
// family (paper: L=10, M=7, W=500) is also the lookup table's: the paper
// tunes one family for both, so a venue's index and oracle hash alike.
type DatabaseConfig struct {
	Oracle core.Params
	Pose   pose.Options
}

// The Locate pipeline's fixed values: candidate retrieval and the
// consensus clustering over the candidates' 3D points.
const (
	// neighborsPerKeypoint is n in the paper's |K|*n candidate retrieval.
	neighborsPerKeypoint = 2
	// maxMatchDistSq rejects LSH candidates farther (squared Euclidean)
	// than this from the query descriptor. Gating matters: ungated far
	// matches scatter 3D candidates across the venue and poison the
	// clustering step.
	maxMatchDistSq = 60000
	// clusterEps and clusterMinPts are the DBSCAN radius and core size
	// (the point itself included): matches within 2 m of each other belong
	// to the same viewed scene.
	clusterEps    = 2.0
	clusterMinPts = 3
)

// walCompactBytes is the write-ahead-log size past which the background
// snapshotter folds the log into a fresh snapshot: 64 MB, a few hundred
// thousand mapping records, well past the point where replaying the log
// dominates cold-start time. Compaction serializes the full database under a
// lock that stalls Ingest (see Compact); Locates read immutable views and are
// unaffected.
const walCompactBytes = 64 << 20

// DefaultDatabaseConfig returns a configuration scaled for the simulated
// venues (TestParams-sized oracle; swap in core.DefaultParams for the
// paper's 2.5M-descriptor scale).
func DefaultDatabaseConfig() DatabaseConfig {
	return DatabaseConfig{
		Oracle: core.TestParams(),
		Pose:   pose.DefaultOptions(),
	}
}

// Database is the cloud service state. All methods are safe for concurrent
// use. A Database is purely in-memory until Open attaches a data directory;
// from then on every ingest is write-ahead logged and the map survives a
// crash (see persist.go).
type Database struct {
	cfg DatabaseConfig

	// cur is the published immutable view (see view.go): the LSH index,
	// positions, oracle, bounds and sequence tags every reader uses,
	// replaced wholesale by the write path. Readers just Load it; mu is
	// never needed to query.
	cur atomic.Pointer[dbView]

	// mu guards the write path (ingest ordering, recovery, the oracle
	// delta ring) and the store fields. The query-side state moved
	// into cur; no read RPC takes this lock anymore.
	mu sync.RWMutex
	// deltaRing retains the per-epoch odelta records (consecutive epochs,
	// oldest first) serving versioned OracleSync requests; deltaBytes
	// accounts their payload total against oracleDeltaBudget. Guarded
	// by mu; cleared on recovery and reset (continuity would be broken).
	deltaRing  []*odelta.Record
	deltaBytes int64
	// lastBlobLen caches the most recent gzip full-blob size, seeding the
	// delta-vs-full cost comparison in OracleSyncSince so small-delta
	// answers never pay a gzip just to prove they are cheap.
	lastBlobLen atomic.Int64

	// Persistence (nil/zero when running in-memory; see Open).
	store    *store.Store
	dataDir  string // last directory Open attached; survives Close so a failed full-sync can retry
	snapKick chan struct{}
	// compactAt is the WAL size at which an ingest kicks the snapshotter:
	// walCompactBytes, lowered by tests before Open to reach the trigger
	// without megabytes of ingest.
	compactAt int64
	quit      chan struct{}
	snapDone  chan struct{}

	// repl, when non-nil, is the fleet control block (see repl.go): the
	// ingest path advances its durable offset and, on a semi-sync primary,
	// withholds the ack until enough replicas confirm. Installed once by
	// NewReplState before the database serves traffic; read without mu.
	repl *ReplState

	// met is the shard's instrument set (see obs.go), fixed at construction.
	met        *dbMetrics
	recoverDur time.Duration

	// coldSolve is the cold pose solve, pose.LocalizeCold. Tests swap in one
	// that holds a request in flight until its context ends.
	coldSolve func(ctx context.Context, corr []pose.Correspondence, intr pose.Intrinsics, lo, hi mathx.Vec3, opt pose.Options) (pose.Result, error)
}

// newDatabase creates an empty shard engine recording into m. Only the
// Router builds shards (buildVenueLocked).
func newDatabase(cfg DatabaseConfig, m *dbMetrics) (*Database, error) {
	v, err := newEmptyView(cfg)
	if err != nil {
		return nil, err
	}
	db := &Database{cfg: cfg, compactAt: walCompactBytes, met: m, coldSolve: pose.LocalizeCold}
	db.cur.Store(v)
	return db, nil
}

// Mapping is one wardriven keypoint-to-3D-position record.
type Mapping struct {
	Desc [sift.DescriptorSize]byte
	Pos  mathx.Vec3
}

// IngestSeq incorporates wardriven mappings: each descriptor is added to the
// lookup table and the uniqueness oracle — "in constant time and memory" per
// record — tagged with the caller's sequence numbers (Router.Ingest stamping
// the venue-global order, or replication replaying a primary's records). seqs
// must be parallel to ms and strictly increasing, and every seq must exceed
// the shard's current MaxSeq — replayed or reordered batches are caller bugs,
// rejected before the WAL reservation.
//
// On a durable database (Open), the batch is write-ahead logged before it
// is applied, and IngestSeq returns only once the record has reached stable
// storage — so an acknowledged batch is always recovered, and a crash can
// only lose batches whose IngestSeq had not yet returned. The WAL reservation
// and the in-memory apply share the database lock, which pins replay order
// to apply order and makes recovery bit-identical; the fsync wait happens
// after the lock is released, so concurrent ingests batch into shared
// group commits instead of serializing on the disk.
//
// The context gates admission only: a batch whose context is already dead
// is rejected up front (typed ErrCanceled/ErrDeadlineExceeded), but once
// the batch has been logged and applied the ingest runs to completion —
// aborting between the WAL append and the ack would leave the caller
// unable to tell whether the batch survives a crash.
func (db *Database) IngestSeq(ctx context.Context, ms []Mapping, seqs []uint64) error {
	if err := ctx.Err(); err != nil {
		return ctxError(err)
	}
	start := time.Now()
	p, err := db.reserve(ms, seqs)
	if err == nil {
		err = p.wait()
	}
	db.met.endIngest(start, err)
	return err
}

// pendingIngest is a batch that has been logged and applied but not yet
// acknowledged: what reserve hands to wait.
type pendingIngest struct {
	db *Database
	// commit is the batch's WAL reservation (nil on an in-memory database);
	// st and kick are the store it was made on and its compaction trigger.
	commit *store.Commit
	st     *store.Store
	kick   chan struct{}
	// replTarget is the store sequence after the reservation — this batch's
	// replication offset: a replica acknowledging it has the batch.
	replTarget uint64
}

// reserve is the locked half of an ingest: validate, reserve the WAL record
// and apply the batch, all under db.mu. Nothing in it blocks on the disk or
// on a replica, so a caller serializing several shards (Router.Ingest) may
// hold its own lock across it; the returned pendingIngest owes a wait.
func (db *Database) reserve(ms []Mapping, seqs []uint64) (pendingIngest, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	// Reject malformed batches before the WAL reservation: apply must not
	// be able to fail after the record is logged, or replay would diverge
	// from the live state. (The descriptor dimension is the LSH family's,
	// checked once by NewRouter.) cur is stable while mu is held: only
	// mu.Lock holders publish.
	last := db.cur.Load().maxSeq()
	if len(seqs) != len(ms) {
		return pendingIngest{}, errRemote{msg: "seq batch length mismatch"}
	}
	for _, s := range seqs {
		if s <= last {
			return pendingIngest{}, errRemote{msg: "non-monotonic shard sequence"}
		}
		last = s
	}
	p := pendingIngest{db: db}
	if db.store != nil {
		p.st, p.kick = db.store, db.snapKick
		p.commit = p.st.Append(encodeSeqMappings(ms, seqs))
		p.replTarget = p.st.Seq()
	}
	if err := db.applyPublishLocked(ms, seqs); err != nil {
		return pendingIngest{}, err
	}
	db.met.mappings.Set(int64(len(db.cur.Load().positions)))
	return p, nil
}

// wait is the unlocked half of an ingest: block until the batch is durable
// (sharing the fsync with every batch reserved meanwhile), then until the
// fleet's semi-sync quorum has it, and kick a compaction when the log has
// outgrown its threshold.
func (p pendingIngest) wait() error {
	if p.commit == nil {
		return nil
	}
	tWait := time.Now()
	err := p.commit.Wait()
	p.db.met.trace.ObserveStage(obs.StageWALAppend, time.Since(tWait))
	if err != nil {
		return err
	}
	if rs := p.db.repl; rs != nil {
		// Durable locally: wake replica long-polls, then (on a semi-sync
		// primary) hold the ack until enough of them have the batch.
		rs.noteDurable()
		if err := rs.waitSynced(p.replTarget); err != nil {
			return err
		}
	}
	if p.st.WALBytes() >= p.db.compactAt {
		select {
		case p.kick <- struct{}{}:
		default: // a compaction is already queued
		}
	}
	return nil
}

// Len returns the number of ingested mappings.
func (db *Database) Len() int { return len(db.cur.Load().positions) }

// MaxSeq returns the highest sequence number applied to this shard (0 when
// empty). The Router stamps each venue batch from the maximum over the
// venue's shards.
func (db *Database) MaxSeq() uint64 { return db.cur.Load().maxSeq() }

// OracleClone returns a deep copy of the published oracle, safe against
// concurrent Ingest — the building block the Router uses to assemble a
// venue-wide oracle from per-shard oracles via core.Merge.
func (db *Database) OracleClone() *core.Oracle { return db.cur.Load().oracle.Clone() }

// DBStats is the server-state report behind the Stats RPC.
type DBStats struct {
	// Mappings is the ingested record count.
	Mappings uint64
	// DatabaseBytes estimates the in-memory footprint of the lookup
	// table, the positions and the live oracle.
	DatabaseBytes uint64
	// OracleInserts is the live oracle's insert counter.
	OracleInserts uint64
	// Persistent reports whether a data directory is attached.
	Persistent bool
	// SnapshotSeq is the ingest-batch coverage of the newest durable
	// snapshot (0 when none has been written yet).
	SnapshotSeq uint64
	// WALBytes is the current size of the write-ahead log.
	WALBytes uint64
	// LastCompactionUnix is when the newest durable snapshot was written
	// (Unix seconds; 0 when never).
	LastCompactionUnix int64
}

// Stats reports the database's size, oracle state and persistence state.
// The engine half comes from the published view; the store half is read
// under the mutex.
func (db *Database) Stats() DBStats {
	v := db.cur.Load()
	s := DBStats{
		Mappings:      uint64(len(v.positions)),
		DatabaseBytes: uint64(v.index.MemoryBytes() + v.oracle.MemoryBytes() + int64(len(v.positions))*24),
		OracleInserts: v.oracle.Inserts(),
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.store != nil {
		s.Persistent = true
		s.SnapshotSeq = db.store.SnapshotSeq()
		s.WALBytes = uint64(db.store.WALBytes())
		if t := db.store.LastCompaction(); !t.IsZero() {
			s.LastCompactionUnix = t.Unix()
		}
	}
	return s
}

// LocateResult is the server's answer to a localization query.
type LocateResult struct {
	Position mathx.Vec3
	Yaw      float64
	Residual float64
	// Matched counts the keypoints whose matches survived clustering.
	Matched int
	// Generations is the pose solve's objective evaluations, aborted ones
	// included, divided by the DE's fixed population of 48: a venue-wide
	// solve's generation count (initialization included), and for a warm
	// or seeded cold solve its hypothesis scoring, its refiner and any
	// fallback in the same unit — the work those paths cut. In-process
	// only: it is not carried on the wire, so results decoded from a
	// remote server report 0.
	Generations int
}

// locateCand pairs a query pixel with one retrieved 3D candidate.
type locateCand struct {
	px, py float64
	p      mathx.Vec3
}

// mergeCand is one LSH candidate of one view, annotated with what
// restores the candidate ranking a single database would have produced across
// any number of views: the squared descriptor distance, the multi-probe
// ordinal the candidate was first collected at, and the venue-global sequence
// number standing in for single-database insertion order. Ordering the union
// by (distSq, probe, seq) reproduces a single index's stable-sorted dedup
// order — in one index, equal-distance ties keep collection order, which is
// lexicographic (probe ordinal, in-bucket insertion order), and in-bucket
// insertion order is ingest order, i.e. seq. Worker scratch, never retained.
type mergeCand struct {
	distSq int
	probe  int32
	seq    uint64
	pos    mathx.Vec3
}

// compareMergeCands is the venue-wide total candidate order (see mergeCand).
func compareMergeCands(a, b mergeCand) int {
	if a.distSq != b.distSq {
		return cmp.Compare(a.distSq, b.distSq)
	}
	if a.probe != b.probe {
		return cmp.Compare(a.probe, b.probe)
	}
	return cmp.Compare(a.seq, b.seq)
}

// parallelLocateThreshold is the keypoint count below which Locate skips
// the worker pool; small queries are faster serially.
const parallelLocateThreshold = 32

// ctxCheckStride is how many keypoints a gather worker processes between
// context checks: often enough that cancellation lands within a fraction of
// a millisecond, rarely enough that the (mutex-guarded) ctx.Err stays off
// the per-candidate hot path.
const ctxCheckStride = 16

// gather produces the |K| * n candidate list from the views of a venue's
// shards; Locate's n is neighborsPerKeypoint and its gate maxMatchDistSq.
// For each keypoint a worker computes the probe keys once (every shard's
// index shares the venue's LSH parameters) and asks every view for its top n
// under the capped multi-probe query — within one view that is already the
// (distSq, probe, seq) order, because reserve admits only increasing seq, so
// id order is seq order — restores the total order across views and
// truncates to n. The query itself drops candidates beyond maxDistSq:
// a distance cut-off of a distance-sorted list removes a suffix, so each
// view's gated top n is its top n less that suffix, and the merged list
// keeps the same prefix a gate after the merge would have. Each view's top
// n is a superset of its share of the venue's top n, so the result is
// exactly what one database holding every mapping would have kept; with one
// view the sort has nothing to reorder.
//
// Keypoints are handed out through a shared counter to `workers` goroutines
// (the caller is one of them; queries under parallelLocateThreshold stay on
// the caller alone — goroutine fan-out costs more than it saves there).
// Every worker owns its scratch and writes each
// keypoint's survivors into that keypoint's own n-wide slot, so compacting
// the slots in keypoint order yields the same list whatever the worker count
// — clustering and pose are bit-identical either way — and a warm gather
// allocates the same few buffers for any number of views. Cancellation
// returns the raw context error for the caller to classify. Views are
// immutable and the LSH read path is safe for concurrent queries.
func gather(ctx context.Context, views []*dbView, kps []sift.Keypoint, n, maxDistSq, workers int) ([]locateCand, error) {
	if len(kps) < parallelLocateThreshold {
		workers = 1
	}
	workers = min(workers, len(kps))
	slots := make([]locateCand, len(kps)*n)
	kept := make([]int, len(kps))
	var (
		next     atomic.Int64
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		next.Store(int64(len(kps))) // the other workers stop at their next keypoint
	}
	opt := lsh.QueryOptions{MaxCandidates: n, MultiProbe: true, MaxDistSq: maxDistSq}
	work := func() {
		var keys []uint64
		var scratch []lsh.Candidate
		merged := make([]mergeCand, 0, len(views)*n)
		for done := 0; ; done++ {
			i := int(next.Add(1)) - 1
			if i >= len(kps) {
				return
			}
			if done%ctxCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
			}
			desc := kps[i].Desc[:]
			var err error
			if keys, err = views[0].index.ProbeKeys(desc, opt.MultiProbe, keys); err != nil {
				fail(err)
				return
			}
			merged = merged[:0]
			for _, v := range views {
				if scratch, err = v.index.QueryKeys(desc, keys, opt, scratch); err != nil {
					fail(err)
					return
				}
				for _, c := range scratch {
					merged = append(merged, mergeCand{distSq: c.DistSq, probe: c.Probe, seq: v.seqs[c.ID], pos: v.positions[c.ID]})
				}
			}
			slices.SortFunc(merged, compareMergeCands)
			slot := slots[i*n : i*n : (i+1)*n]
			for _, c := range merged[:min(n, len(merged))] {
				slot = append(slot, locateCand{px: kps[i].X, py: kps[i].Y, p: c.pos})
			}
			kept[i] = len(slot)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	cands := slots[:0] // compacted in place: the write index never passes the read index
	for i, k := range kept {
		cands = append(cands, slots[i*n:i*n+k]...)
	}
	return cands, nil
}

// locateShards is the one Locate body, for a venue of any shard count: load
// each shard's published view once, gather the candidates of every view
// through GOMAXPROCS workers, union the bounds of the same views, and run the
// solve tail — warm-started when prior is a session's prediction (the bool
// reports warm acceptance; see solve). Candidates, emptiness and bounds all
// come from one generation per shard. Across shards the views are still not a
// venue-wide snapshot: a Locate racing an Ingest may see the batch on some
// shards only; quiesced, the result is exact.
func locateShards(ctx context.Context, m *dbMetrics, shards []*Database, kps []sift.Keypoint, intr pose.Intrinsics, prior *track.Prior) (res LocateResult, warm bool, err error) {
	tr := m.trace.Begin("locate")
	defer func() { m.endLocate(tr, err) }()
	views := make([]*dbView, len(shards))
	for i, sh := range shards {
		views[i] = sh.cur.Load()
	}
	var lo, hi mathx.Vec3
	total, bounded := 0, false
	for _, v := range views {
		total += len(v.positions)
		if v.hasBounds {
			growBounds(&lo, &hi, &bounded, v.lo, v.hi)
		}
	}
	if total == 0 {
		return LocateResult{}, false, ErrEmptyDatabase
	}
	if err := ctx.Err(); err != nil {
		return LocateResult{}, false, ctxError(err)
	}
	t0 := time.Now()
	cands, err := gather(ctx, views, kps, neighborsPerKeypoint, maxMatchDistSq, runtime.GOMAXPROCS(0))
	tr.StageSince(obs.StageLSHQuery, t0)
	if err != nil {
		return LocateResult{}, false, ctxError(err)
	}
	return solve(ctx, shards[0], cands, lo, hi, intr, tr, prior)
}

// searchPad pads the ingested bounds into the pose search box. Keeping the
// box tight matters: keypoints concentrated on one wall admit a mirrored
// camera position through the wall plane, which a box clipped to the venue
// interior excludes.
var searchPad = mathx.Vec3{X: 0.3, Y: 0.3, Z: 0.3}

// solve runs the back half of the Locate pipeline — clustering,
// largest-cluster filtering (correspondences) and the pose optimization —
// over an already-gathered candidate list (see locateShards): the unioned
// venue bounds, padded by searchPad, are the search box. db is the venue's
// first shard, whose configuration and cold solve every shard shares.
//
// A nil prior solves cold: db.coldSolve (pose.LocalizeCold) with cfg.Pose, a
// search seeded by closed-form hypotheses whose gate falls back to the
// venue-wide search.
// A session's prior solves warm first (pose.LocalizeWarm) and reports true
// when the result passes the residual gate; a rejected prior falls through
// to the same cold solve over the same correspondences, so the answer is
// bit-identical to a session-less Locate. Warm-solve errors are returned
// without a cold retry: nothing that can fail depends on the prior.
func solve(ctx context.Context, db *Database, cands []locateCand, lo, hi mathx.Vec3, intr pose.Intrinsics, tr *obs.Trace, prior *track.Prior) (LocateResult, bool, error) {
	corr, err := correspondences(ctx, cands, tr)
	if err != nil {
		return LocateResult{}, false, err
	}
	lo, hi = lo.Sub(searchPad), hi.Add(searchPad)
	if prior != nil {
		t0 := time.Now()
		res, accepted, err := pose.LocalizeWarm(ctx, corr, intr, lo, hi, prior.Pos, prior.Radius, prior.Residual)
		tr.StageSince(obs.StagePoseSolve, t0)
		if err != nil {
			return LocateResult{}, false, ctxError(err)
		}
		if accepted {
			return locateResult(res, len(corr)), true, nil
		}
	}
	t0 := time.Now()
	res, err := db.coldSolve(ctx, corr, intr, lo, hi, db.cfg.Pose)
	tr.StageSince(obs.StagePoseSolve, t0)
	if err != nil {
		return LocateResult{}, false, ctxError(err)
	}
	return locateResult(res, len(corr)), false, nil
}

// correspondences clusters the gathered candidates' 3D points and pairs
// each member of the largest cluster with its query pixel, in candidate
// order; the largest cluster filters out scattered false matches.
func correspondences(ctx context.Context, cands []locateCand, tr *obs.Trace) ([]pose.Correspondence, error) {
	if len(cands) < 3 {
		return nil, ErrTooFewMatches
	}
	if err := ctx.Err(); err != nil {
		return nil, ctxError(err)
	}
	pts := make([]mathx.Vec3, len(cands))
	for i, c := range cands {
		pts[i] = c.p
	}
	t0 := time.Now()
	largest, ok, err := cluster.Largest(pts, cluster.Params{Eps: clusterEps, MinPts: clusterMinPts})
	tr.StageSince(obs.StageCluster, t0)
	if err != nil {
		return nil, err
	}
	if !ok || len(largest.Indices) < 3 {
		return nil, ErrNoConsensus
	}
	if err := ctx.Err(); err != nil {
		return nil, ctxError(err)
	}
	corr := make([]pose.Correspondence, 0, len(largest.Indices))
	for _, i := range largest.Indices {
		corr = append(corr, pose.Correspondence{Px: cands[i].px, Py: cands[i].py, P: cands[i].p})
	}
	return corr, nil
}

// locateResult is a pose solve over matched correspondences as a Locate
// answer.
func locateResult(res pose.Result, matched int) LocateResult {
	return LocateResult{
		Position:    res.Position,
		Yaw:         res.Yaw,
		Residual:    res.Residual,
		Matched:     matched,
		Generations: res.Generations(),
	}
}
