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
)

// DatabaseConfig configures the server-side structures.
type DatabaseConfig struct {
	LSH    lsh.Params
	Oracle core.Params
	// NeighborsPerKeypoint is n in the paper's |K|*n candidate retrieval.
	NeighborsPerKeypoint int
	// MaxMatchDistSq rejects LSH candidates farther (squared Euclidean)
	// than this from the query descriptor; 0 accepts everything. Gating
	// matters: ungated far matches scatter 3D candidates across the venue
	// and poison the clustering step.
	MaxMatchDistSq int
	Cluster        cluster.Params
	Pose           pose.Options
	// LocateParallelism bounds the worker pool that fans per-keypoint LSH
	// candidate retrieval out during Locate. 0 means GOMAXPROCS; 1 keeps the
	// gather on the calling goroutine, as do queries below
	// parallelLocateThreshold keypoints — goroutine fan-out costs more than
	// it saves on small queries.
	LocateParallelism int
	// WALCompactBytes is the write-ahead-log size past which the
	// background snapshotter folds the log into a fresh snapshot (only
	// meaningful after Open; 0 means defaultWALCompactBytes). Compaction
	// serializes the full database under a lock that stalls Ingest, so this
	// knob also tunes the size of periodic ingest latency spikes: smaller
	// means more frequent but shorter stalls. Locates are unaffected —
	// they read pinned RCU snapshots and take no lock (see rcu.go).
	WALCompactBytes int64
	// OracleDeltaWindow bounds the per-epoch delta ring serving versioned
	// OracleSync requests: how many recent ingest batches stay answerable
	// as compressed cell deltas before a client must full-sync. 0 means
	// defaultOracleDeltaWindow; negative disables delta retention.
	OracleDeltaWindow int
	// OracleDeltaBudgetBytes caps the delta ring's total payload bytes
	// (0 means defaultOracleDeltaBudget). The ring evicts oldest-first
	// past either bound.
	OracleDeltaBudgetBytes int64
}

// defaultWALCompactBytes triggers compaction once the WAL outgrows 64 MB —
// a few hundred thousand mapping records, well past the point where
// replaying the log dominates cold-start time.
const defaultWALCompactBytes = 64 << 20

// DefaultDatabaseConfig returns a configuration scaled for the simulated
// venues (TestParams-sized oracle; swap in core.DefaultParams for the
// paper's 2.5M-descriptor scale).
func DefaultDatabaseConfig() DatabaseConfig {
	return DatabaseConfig{
		LSH:                  lsh.DefaultParams(),
		Oracle:               core.TestParams(),
		NeighborsPerKeypoint: 2,
		MaxMatchDistSq:       60000,
		Cluster:              cluster.DefaultParams(),
		Pose:                 pose.DefaultOptions(),
	}
}

// Database is the cloud service state. All methods are safe for concurrent
// use. A Database is purely in-memory until Open attaches a data directory;
// from then on every Ingest is write-ahead logged and the map survives a
// crash (see persist.go).
type Database struct {
	cfg DatabaseConfig

	// cur is the published immutable read snapshot (see rcu.go): the LSH
	// index, positions, oracle, bounds and sequence tags every reader uses,
	// swapped wholesale by the write path. Readers pin it lock-free via
	// pinView; mu is never needed to query.
	cur atomic.Pointer[dbView]
	// shadow is the off-line generation the next ingest batch mutates
	// before publishing; nil after a wholesale replace (open, reset,
	// full-sync), lazily re-cloned from cur by the next batch. Guarded by
	// mu.
	shadow *dbView

	// mu guards the write path (ingest ordering, recovery, the oracle
	// delta ring) and the store fields. The query-side state moved
	// into cur; no read RPC takes this lock anymore.
	mu sync.RWMutex
	// log receives persistence warnings (WAL truncation); set via SetLogger, defaulting to
	// the process logger (obs.Default). Serve wires it to the server's
	// logger when still unset. Every logf call site already holds mu, so
	// SetLogger taking the write lock keeps late wiring race-free.
	log    *obs.Logger
	logSet bool
	// deltaRing retains the per-epoch odelta records (consecutive epochs,
	// oldest first) serving versioned OracleSync requests; deltaBytes
	// accounts their payload total against OracleDeltaBudgetBytes. Guarded
	// by mu; cleared on recovery and reset (continuity would be broken).
	deltaRing  []*odelta.Record
	deltaBytes int64
	// epochCh is closed and replaced on every epoch bump — the wakeup
	// primitive behind oracle subscriptions (see EpochSignal). Guarded by
	// mu.
	epochCh chan struct{}
	// lastBlobLen caches the most recent gzip full-blob size, seeding the
	// delta-vs-full cost comparison in OracleSyncSince so small-delta
	// answers never pay a gzip just to prove they are cheap.
	lastBlobLen atomic.Int64

	// Persistence (nil/zero when running in-memory; see Open).
	store    *store.Store
	dataDir  string // last directory Open attached; survives Close so a failed full-sync can retry
	snapKick chan struct{}
	quit     chan struct{}
	snapDone chan struct{}

	// repl, when non-nil, is the fleet control block (see repl.go): the
	// ingest path advances its durable offset and, on a semi-sync primary,
	// withholds the ack until enough replicas confirm. Installed once by
	// NewReplState before the database serves traffic; read without mu.
	repl *ReplState

	// Observability (nil until Router.EnableObs; see obs.go). Installed once,
	// never swapped, loaded atomically so lock-free readers can record.
	met        atomic.Pointer[dbMetrics]
	recoverDur time.Duration
}

// SetLogger routes the database's persistence and resource warnings
// through l (nil silences them). Defaults to the process logger
// (obs.Default) when never called.
func (db *Database) SetLogger(l *obs.Logger) {
	if l == nil {
		l = obs.Discard
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.log = l
	db.logSet = true
}

// setLoggerDefault wires l only when SetLogger has never been called.
func (db *Database) setLoggerDefault(l *obs.Logger) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.logSet {
		db.log = l
		db.logSet = true
	}
}

// logf logs one warning. Callers must hold db.mu (either side).
func (db *Database) logf(format string, args ...any) {
	if db.log != nil {
		db.log.Warnf(format, args...)
		return
	}
	if !db.logSet {
		obs.Default().Warnf(format, args...)
	}
}

// NewDatabase creates an empty shard engine. The Router composes one or more
// of these into a venue; a lone Database is a complete one-shard venue.
func NewDatabase(cfg DatabaseConfig) (*Database, error) {
	if cfg.NeighborsPerKeypoint <= 0 {
		cfg.NeighborsPerKeypoint = 2
	}
	if cfg.WALCompactBytes <= 0 {
		cfg.WALCompactBytes = defaultWALCompactBytes
	}
	v, err := newEmptyView(cfg)
	if err != nil {
		return nil, err
	}
	db := &Database{cfg: cfg, epochCh: make(chan struct{})}
	db.cur.Store(v)
	return db, nil
}

// Mapping is one wardriven keypoint-to-3D-position record.
type Mapping struct {
	Desc [sift.DescriptorSize]byte
	Pos  mathx.Vec3
}

// Ingest incorporates wardriven mappings: each descriptor is added to the
// lookup table and the uniqueness oracle — "in constant time and memory"
// per record — tagged with the next run of sequence numbers (MaxSeq+1…).
//
// On a durable database (Open), the batch is write-ahead logged before it
// is applied, and Ingest returns only once the record has reached stable
// storage — so an acknowledged batch is always recovered, and a crash can
// only lose batches whose Ingest had not yet returned. The WAL reservation
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
func (db *Database) Ingest(ctx context.Context, ms []Mapping) error {
	return db.IngestSeq(ctx, ms, nil)
}

// IngestSeq is Ingest with caller-assigned sequence numbers (replication
// replaying a primary's records; nil seqs self-assigns like Ingest). seqs
// must be parallel to ms and strictly increasing, and every seq must exceed
// the shard's current MaxSeq — replayed or reordered batches are caller
// bugs, rejected before the WAL reservation.
func (db *Database) IngestSeq(ctx context.Context, ms []Mapping, seqs []uint64) error {
	if err := ctx.Err(); err != nil {
		return ctxError(err)
	}
	start := time.Now()
	p, err := db.reserve(ms, seqs)
	if err == nil {
		err = p.wait()
	}
	db.metrics().endIngest(start, err)
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
	// Reject malformed batches before the WAL reservation: applyLocked
	// must not be able to fail after the record is logged, or replay would
	// diverge from the live state.
	if db.cfg.LSH.Dim != sift.DescriptorSize || db.cfg.Oracle.LSH.Dim != sift.DescriptorSize {
		return pendingIngest{}, errRemote{msg: "database descriptor dimension mismatch"}
	}
	// cur is stable while mu is held: only mu.Lock holders publish.
	last := db.cur.Load().maxSeq
	if seqs == nil {
		seqs = make([]uint64, len(ms))
		for i := range seqs {
			seqs[i] = last + uint64(i) + 1
		}
	}
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
	db.metrics().mappings.Set(int64(len(db.cur.Load().positions)))
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
	p.db.metrics().trace.ObserveStage(obs.StageWALAppend, time.Since(tWait))
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
	if p.st.WALBytes() >= p.db.cfg.WALCompactBytes {
		select {
		case p.kick <- struct{}{}:
		default: // a compaction is already queued
		}
	}
	return nil
}

// Len returns the number of ingested mappings.
func (db *Database) Len() int {
	v, t := db.pinView()
	defer db.unpin(v, t)
	return len(v.positions)
}

// MaxSeq returns the highest sequence number applied to this shard (0 when
// empty). The Router stamps each venue batch from the maximum over the
// venue's shards.
func (db *Database) MaxSeq() uint64 {
	v, t := db.pinView()
	defer db.unpin(v, t)
	return v.maxSeq
}

// OracleClone returns a deep copy of the live oracle taken from a pinned
// read snapshot, safe against concurrent Ingest — the building block the
// Router uses to assemble a venue-wide oracle from per-shard oracles via
// core.Merge.
func (db *Database) OracleClone() (*core.Oracle, error) {
	v, t := db.pinView()
	defer db.unpin(v, t)
	return v.oracle.Clone()
}

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
// The engine half comes from a pinned read snapshot; the store half is read
// under the mutex afterwards — never while pinned (a pinned reader queued
// on mu would deadlock against a publishing ingest; see rcu.go).
func (db *Database) Stats() DBStats {
	v, t := db.pinView()
	mem := v.footprint.Load()
	if mem == 0 {
		mem = v.index.MemoryBytes() + v.oracle.MemoryBytes() + int64(len(v.positions))*24
		v.footprint.Store(mem)
	}
	s := DBStats{
		Mappings:      uint64(len(v.positions)),
		DatabaseBytes: uint64(mem),
		OracleInserts: v.oracle.Inserts(),
	}
	db.unpin(v, t)
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
	// Generations is the DE generation count the pose solve consumed
	// (initialization included) — the quantity the warm-start tracking
	// path halves. In-process only: it is not carried on the wire, so
	// results decoded from a remote server report 0.
	Generations int
}

// locateCand pairs a query pixel with one retrieved 3D candidate.
type locateCand struct {
	px, py float64
	p      mathx.Vec3
}

// mergeCand is one LSH candidate of one pinned view, annotated with what
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

// gather produces the |K| * n candidate list from the pinned views of a
// venue's shards. For each keypoint a worker asks every view for its top n
// under the capped multi-probe query — within one view that is already the
// (distSq, probe, seq) order, because reserve admits only increasing seq, so
// id order is seq order — restores the total order across views, truncates
// to n and only then gates on MaxMatchDistSq. Each view's top n is a
// superset of its share of the venue's top n, so the result is exactly what
// one database holding every mapping would have kept; with one view the sort
// has nothing to reorder.
//
// Keypoints are handed out through a shared counter to cfg.LocateParallelism
// workers (the caller is one of them; queries under parallelLocateThreshold
// stay on the caller alone). Every worker owns its scratch and writes each
// keypoint's survivors into that keypoint's own n-wide slot, so compacting
// the slots in keypoint order yields the same list whatever the worker count
// — clustering and pose are bit-identical either way — and a warm gather
// allocates the same few buffers for any number of views. Cancellation
// returns the raw context error for the caller to classify. Callers hold a
// pin on every view; the LSH read path is safe for concurrent queries.
func gather(ctx context.Context, cfg DatabaseConfig, views []*dbView, kps []sift.Keypoint) ([]locateCand, error) {
	n := cfg.NeighborsPerKeypoint
	workers := cfg.LocateParallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
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
	work := func() {
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
			merged = merged[:0]
			for _, v := range views {
				var err error
				scratch, err = v.index.QueryInto(kps[i].Desc[:], lsh.QueryOptions{MaxCandidates: n, MultiProbe: true}, scratch)
				if err != nil {
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
				if cfg.MaxMatchDistSq > 0 && c.distSq > cfg.MaxMatchDistSq {
					continue
				}
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

// Locate runs the paper's server-side query pipeline: LSH candidate
// retrieval for each uploaded keypoint (parallelized across a bounded
// worker pool on large queries), spatial clustering of the candidate 3D
// points, largest-cluster filtering, and the Figure 12 optimization over
// the surviving correspondences. Failures return the typed sentinels
// ErrEmptyDatabase, ErrTooFewMatches and ErrNoConsensus.
//
// The context is checked at every stage boundary and once per DE
// generation inside the pose solve, so a canceled or expired request stops
// burning CPU mid-pipeline; those failures return ErrCanceled or
// ErrDeadlineExceeded (which also match context.Canceled and
// context.DeadlineExceeded under errors.Is).
//
// A lone shard is a one-shard venue: this is locateShards over []*Database{db},
// the same body Router.LocateSession runs on a venue's shards.
func (db *Database) Locate(ctx context.Context, kps []sift.Keypoint, intr pose.Intrinsics) (LocateResult, error) {
	res, _, err := locateShards(ctx, db.metrics(), []*Database{db}, kps, intr, nil)
	return res, err
}

// locateShards is the one Locate body, for a venue of any shard count: pin
// each shard's published view once, gather the candidates of every view
// through the worker pool, union the bounds of the same views, and run the
// solve tail — warm-started when ws carries a session prior (the bool reports
// warm acceptance; see solve). Candidates, emptiness and bounds all come from
// one generation per shard. Across shards the views are still not a
// venue-wide snapshot: a Locate racing an Ingest may see the batch on some
// shards only; quiesced, the result is exact.
func locateShards(ctx context.Context, m *dbMetrics, shards []*Database, kps []sift.Keypoint, intr pose.Intrinsics, ws *warmSolve) (res LocateResult, warm bool, err error) {
	tr := m.trace.Begin("locate")
	defer func() { m.endLocate(tr, err) }()
	views := make([]*dbView, len(shards))
	toks := make([]*pinToken, len(shards))
	for i, sh := range shards {
		views[i], toks[i] = sh.pinView()
	}
	defer func() {
		for i, sh := range shards {
			sh.unpin(views[i], toks[i])
		}
	}()
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
	cands, err := gather(ctx, shards[0].cfg, views, kps)
	tr.StageSince(obs.StageLSHQuery, t0)
	if err != nil {
		return LocateResult{}, false, ctxError(err)
	}
	return solve(ctx, shards[0].cfg, cands, lo, hi, intr, tr, ws)
}

// solve runs the back half of the Locate pipeline — clustering,
// largest-cluster filtering and the pose optimization — over an
// already-gathered candidate list (see locateShards): the unioned venue
// bounds feed the search box, and clustering order is fixed by the list order.
//
// A nil ws solves cold with cfg.Pose verbatim. A non-nil ws solves warm first
// (prior pose, shrunk bounds, early convergence stop — see track.go) and
// reports true when the result passes the residual gate; a rejected prior is
// re-solved cold over the same correspondences, so the answer is
// bit-identical to a session-less Locate. Warm-solve errors are returned
// without a cold retry: nothing that can fail depends on the prior.
func solve(ctx context.Context, cfg DatabaseConfig, cands []locateCand, lo, hi mathx.Vec3, intr pose.Intrinsics, tr *obs.Trace, ws *warmSolve) (LocateResult, bool, error) {
	if len(cands) < 3 {
		return LocateResult{}, false, ErrTooFewMatches
	}
	if err := ctx.Err(); err != nil {
		return LocateResult{}, false, ctxError(err)
	}
	// Largest spatial cluster filters out scattered false matches.
	pts := make([]mathx.Vec3, len(cands))
	for i, c := range cands {
		pts[i] = c.p
	}
	t0 := time.Now()
	largest, ok, err := cluster.Largest(pts, cfg.Cluster)
	tr.StageSince(obs.StageCluster, t0)
	if err != nil {
		return LocateResult{}, false, err
	}
	if !ok || len(largest.Indices) < 3 {
		return LocateResult{}, false, ErrNoConsensus
	}
	if err := ctx.Err(); err != nil {
		return LocateResult{}, false, ctxError(err)
	}
	corr := make([]pose.Correspondence, 0, len(largest.Indices))
	for _, i := range largest.Indices {
		corr = append(corr, pose.Correspondence{Px: cands[i].px, Py: cands[i].py, P: cands[i].p})
	}
	// Search box: the ingested bounds with a small pad. Keeping the box
	// tight matters: keypoints concentrated on one wall admit a mirrored
	// camera position through the wall plane, which a box clipped to the
	// venue interior excludes.
	pad := mathx.Vec3{X: 0.3, Y: 0.3, Z: 0.3}
	localize := func(popt pose.Options) (LocateResult, error) {
		t0 := time.Now()
		res, err := pose.LocalizeContext(ctx, corr, intr, lo.Sub(pad), hi.Add(pad), popt)
		tr.StageSince(obs.StagePoseSolve, t0)
		if err != nil {
			return LocateResult{}, ctxError(err)
		}
		// Evals = effective-PopSize × (init + generations); the solver clamps
		// PopSize to a floor of 8, so mirror that clamp here.
		ps := popt.PopSize
		if ps < 8 {
			ps = 8
		}
		return LocateResult{
			Position:    res.Position,
			Yaw:         res.Yaw,
			Residual:    res.Residual,
			Matched:     len(largest.Indices),
			Generations: res.Evals / ps,
		}, nil
	}
	if ws != nil {
		res, err := localize(ws.opt)
		if err != nil || ws.accept <= 0 || res.Residual <= ws.accept {
			return res, err == nil, err
		}
	}
	res, err := localize(cfg.Pose)
	return res, false, err
}
