package server

import (
	"math"

	"visualprint/internal/core"
	"visualprint/internal/lsh"
	"visualprint/internal/mathx"
)

// Copy-on-write read views.
//
// The database's query-side state — LSH index, positions, oracle, bounds,
// sequence tags — lives in an immutable dbView published through an
// atomic.Pointer. Readers (Locate — one view per shard of the venue — Stats,
// oracle clones, sync) load the current view and read it without any lock
// or registration; db.mu guards only the write path (ingest, recovery,
// snapshot window bookkeeping) and the store fields.
//
// An ingest builds the next view from the published one by extension, never
// by mutation: positions, seqs and the index's descriptor arena are
// append-only slices whose spare capacity the next view fills past the
// published length, and the index is a new handle over the shared,
// append-only bucket tables (lsh.Index.Extend) that sees only ids below its
// own length. A reader of an older view is bounded by that view's lengths,
// so it never looks at what later batches append. The oracle is the one structure a batch updates in
// place, so the next view inserts into its own copy (core.Oracle.Clone).
// Publishing is one pointer store; a view stays valid for as long as anyone
// holds it and the garbage collector retires it. Nothing tracks readers, so
// an ingest never waits for in-flight reads.

// dbView is one immutable generation of the query-side state: no field is
// written once the view is published.
type dbView struct {
	index     *lsh.Index
	positions []mathx.Vec3
	oracle    *core.Oracle
	lo, hi    mathx.Vec3
	hasBounds bool
	// seqs, parallel to positions, tags every mapping with its venue-global
	// sequence number: the venue-wide insertion order, i.e. the tie-break that
	// lets a gather over several shards' views reproduce one database's
	// candidate ranking exactly (see mergeCand).
	seqs []uint64
	// epoch is the oracle version: the count of ingest batches ever applied
	// to this database. On a durable database it is anchored to the store's
	// record sequence (one WAL record per batch), so it survives restarts
	// and replays identically on replicas — the version identity clients
	// cite in OracleSync requests.
	epoch uint64
}

// maxSeq returns the highest sequence tag applied (0 when empty): the last,
// since reserve admits only increasing tags.
func (v *dbView) maxSeq() uint64 {
	if len(v.seqs) == 0 {
		return 0
	}
	return v.seqs[len(v.seqs)-1]
}

// newEmptyView builds a fresh empty generation from the configuration: the
// index hashes with the oracle's LSH family.
func newEmptyView(cfg DatabaseConfig) (*dbView, error) {
	ix, err := lsh.NewIndex(cfg.Oracle.LSH)
	if err != nil {
		return nil, err
	}
	o, err := core.New(cfg.Oracle)
	if err != nil {
		return nil, err
	}
	return &dbView{index: ix, oracle: o}, nil
}

// apply extends this unpublished view with a batch: the oracle inserts,
// appends to positions and seqs, and one Extend of the index. It is the
// single mutation path, shared by live ingest (on a successor of the
// published view, see applyPublishLocked), WAL replay and replica catch-up
// (on a detached recovery view). seqs is parallel to ms.
func (v *dbView) apply(ms []Mapping, seqs []uint64) error {
	descs := make([][]byte, len(ms))
	for i := range ms {
		descs[i] = ms[i].Desc[:] // Extend copies them into the index's arena
		if err := v.oracle.Insert(descs[i]); err != nil {
			return err
		}
		v.positions = append(v.positions, ms[i].Pos)
		v.seqs = append(v.seqs, seqs[i])
		growBounds(&v.lo, &v.hi, &v.hasBounds, ms[i].Pos, ms[i].Pos)
	}
	ix, err := v.index.Extend(descs)
	if err != nil {
		return err
	}
	v.index = ix
	return nil
}

// growBounds widens the axis-aligned box [lo, hi] (valid once ok) to cover
// the box [plo, phi]. Per-axis min/max commute, so the order boxes and points
// arrive in never changes the result — which is why the union of per-shard
// bounds equals the bounds of one database holding every mapping.
func growBounds(lo, hi *mathx.Vec3, ok *bool, plo, phi mathx.Vec3) {
	if !*ok {
		*lo, *hi, *ok = plo, phi, true
		return
	}
	lo.X, lo.Y, lo.Z = math.Min(lo.X, plo.X), math.Min(lo.Y, plo.Y), math.Min(lo.Z, plo.Z)
	hi.X, hi.Y, hi.Z = math.Max(hi.X, phi.X), math.Max(hi.Y, phi.Y), math.Max(hi.Z, phi.Z)
}

// applyPublishLocked runs one ingest batch: build the next view — sharing
// the published view's append-only storage, with its own oracle copy — apply
// the batch to it, record the epoch's oracle delta and publish it. On error
// nothing is published. Callers hold db.mu.
func (db *Database) applyPublishLocked(ms []Mapping, seqs []uint64) error {
	cur := db.cur.Load()
	next := &dbView{
		index:     cur.index,
		positions: cur.positions,
		oracle:    cur.oracle.Clone(),
		lo:        cur.lo,
		hi:        cur.hi,
		hasBounds: cur.hasBounds,
		seqs:      cur.seqs,
		epoch:     cur.epoch + 1,
	}
	if err := next.apply(ms, seqs); err != nil {
		return err
	}
	// Both endpoints of the epoch are immutable here, which is what the
	// cell-wise delta is computed against.
	db.recordDeltaLocked(cur, next)
	db.cur.Store(next)
	return nil
}
