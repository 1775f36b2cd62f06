package server

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"visualprint/internal/core"
	"visualprint/internal/lsh"
	"visualprint/internal/mathx"
	"visualprint/internal/sift"
)

// RCU read snapshots.
//
// The database's query-side state — LSH index, positions, oracle, bounds,
// sequence tags — lives in an immutable dbView published through an
// atomic.Pointer. Readers (Locate — one pin per shard of the venue — Stats,
// oracle clones) pin the current view, read it without any lock, and unpin;
// db.mu now guards only the write path (ingest, recovery, snapshot window
// bookkeeping) and the store fields.
//
// Writes use two alternating generations, RCU-style:
//
//  1. ensure a shadow view exists (a deep clone of the published view;
//     lazily rebuilt only after a wholesale replace, so steady-state ingest
//     never re-clones),
//  2. apply the batch to the shadow,
//  3. publish: swap the shadow in as the live view,
//  4. grace period: wait until every reader pinned to the old view drains,
//  5. apply the same batch to the retired view, which becomes the next
//     shadow.
//
// Each batch is applied twice through the identical code path, so the two
// generations stay byte-equal and ingest cost is O(batch), not O(database).
// The grace period is bounded by the slowest in-flight read (a Locate is
// tens of milliseconds); because views are only re-published once they are
// again immutable, the pointer-equality validation in pinView is ABA-safe.
//
// Deadlock rule: never acquire db.mu while holding a pin. The publisher
// holds db.mu and waits for pins to drain, so a reader that pinned and then
// queued on db.mu would deadlock the pair. Readers that need both (Stats)
// pin, read, unpin — then take the mutex separately.

// dbView is one immutable generation of the query-side state. All fields
// except pins and footprint are frozen from publish until retire; those two
// are the only fields readers write.
type dbView struct {
	index     *lsh.Index
	positions []mathx.Vec3
	oracle    *core.Oracle
	lo, hi    mathx.Vec3
	hasBounds bool
	// seqs, parallel to positions, tags every mapping with its venue-global
	// sequence number: the venue-wide insertion order, i.e. the tie-break that
	// lets a gather over several shards' views reproduce one database's
	// candidate ranking exactly (see mergeCand). maxSeq is the highest tag
	// applied.
	seqs   []uint64
	maxSeq uint64
	// epoch is the oracle version: the count of ingest batches ever applied
	// to this database. On a durable database it is anchored to the store's
	// record sequence (one WAL record per batch), so it survives restarts
	// and replays identically on replicas — the version identity clients
	// cite in OracleSync requests.
	epoch uint64
	// footprint caches the view's in-memory size estimate for Stats (0 =
	// not computed; the index walk behind it is O(mappings)). apply resets
	// it, so the stats RPC pays the walk once per generation.
	footprint atomic.Int64

	pins pinSet
}

// pinShards spreads reader pin counts across cache lines so concurrent
// Locates on different cores don't serialize on one hot counter word.
const pinShards = 16

type pinShard struct {
	n atomic.Int64
	_ [56]byte // pad to a cache line; neighbors never false-share
}

// pinSet counts active readers of a view, sharded. A view's publisher
// retires it by waiting for every shard to drain (see wait).
type pinSet [pinShards]pinShard

func (ps *pinSet) add(slot int, d int64) { ps[slot].n.Add(d) }

// wait blocks until no validated reader holds a pin on this view. Per-shard
// argument: a reader pins and validates against the then-current pointer
// with seq-cst atomics, so once the view is unpublished, any pin that could
// still validate must already be visible to this sum — a shard observed at
// zero after the swap can never again carry a validated pin for this view.
// (Unvalidated transient increments from racing readers retry against the
// new view and decrement immediately; the loop absorbs them.)
func (ps *pinSet) wait() {
	for i := 0; ; i++ {
		clear := true
		for s := range ps {
			if ps[s].n.Load() != 0 {
				clear = false
				break
			}
		}
		if clear {
			return
		}
		if i < 128 {
			runtime.Gosched()
		} else {
			// Readers hold pins for whole Locates (tens of ms); parking
			// beats burning a core once the quick drains are exhausted.
			time.Sleep(200 * time.Microsecond)
		}
	}
}

// pinToken carries a reader's shard assignment. Tokens are pooled so a
// goroutine reuses the same shard across queries instead of contending on a
// global counter per read.
type pinToken struct{ slot int }

var pinSlotSeq atomic.Uint64

var pinTokens = sync.Pool{New: func() any {
	return &pinToken{slot: int(pinSlotSeq.Add(1) % pinShards)}
}}

// pinView pins and returns the current published view. The pin-then-revalidate
// loop closes the race with a concurrent publish: if the pointer moved after
// we pinned, the publisher may already have missed our pin, so we back out
// and retry against the new view. Callers must release with unpin and must
// not acquire db.mu while pinned (see the deadlock rule above).
func (db *Database) pinView() (*dbView, *pinToken) {
	t := pinTokens.Get().(*pinToken)
	for {
		v := db.cur.Load()
		v.pins.add(t.slot, 1)
		if db.cur.Load() == v {
			return v, t
		}
		v.pins.add(t.slot, -1)
	}
}

// unpin releases a pinned view and recycles the token.
func (db *Database) unpin(v *dbView, t *pinToken) {
	v.pins.add(t.slot, -1)
	pinTokens.Put(t)
}

// newEmptyView builds a fresh empty generation from the configuration.
func newEmptyView(cfg DatabaseConfig) (*dbView, error) {
	ix, err := lsh.NewIndex(cfg.LSH)
	if err != nil {
		return nil, err
	}
	o, err := core.New(cfg.Oracle)
	if err != nil {
		return nil, err
	}
	return &dbView{index: ix, oracle: o}, nil
}

// clone deep-copies a view into a detached, mutable twin. The LSH index is
// round-tripped through its serialization, which preserves per-bucket
// insertion order — the property that keeps queries against the clone
// candidate-for-candidate identical to the original. Only needed after a
// wholesale replace (open, reset, full-sync); steady-state ingest recycles
// the retired generation instead.
func (v *dbView) clone() (*dbView, error) {
	var buf bytes.Buffer
	if _, err := v.index.WriteTo(&buf); err != nil {
		return nil, err
	}
	ix, err := lsh.ReadIndex(&buf)
	if err != nil {
		return nil, err
	}
	o, err := v.oracle.Clone()
	if err != nil {
		return nil, err
	}
	return &dbView{
		index:     ix,
		positions: slices.Clone(v.positions),
		oracle:    o,
		lo:        v.lo,
		hi:        v.hi,
		hasBounds: v.hasBounds,
		seqs:      slices.Clone(v.seqs),
		maxSeq:    v.maxSeq,
		epoch:     v.epoch,
	}, nil
}

// apply incorporates mappings into this (unpublished) view. It is the
// single mutation path, shared by live ingest (which runs it once on each
// generation), WAL replay and replica catch-up. seqs is parallel to ms.
func (v *dbView) apply(ms []Mapping, seqs []uint64) error {
	v.footprint.Store(0)
	for i := range ms {
		desc := make([]byte, sift.DescriptorSize)
		copy(desc, ms[i].Desc[:])
		if _, err := v.index.Insert(desc); err != nil {
			return err
		}
		if err := v.oracle.Insert(desc); err != nil {
			return err
		}
		v.positions = append(v.positions, ms[i].Pos)
		v.seqs = append(v.seqs, seqs[i])
		if seqs[i] > v.maxSeq {
			v.maxSeq = seqs[i]
		}
		growBounds(&v.lo, &v.hi, &v.hasBounds, ms[i].Pos, ms[i].Pos)
	}
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

// publishLocked installs next as the live view and waits out the grace
// period on the view it replaces, which it returns — retired, unobserved,
// and safe to mutate. Callers hold db.mu.
func (db *Database) publishLocked(next *dbView) *dbView {
	old := db.cur.Swap(next)
	if old != nil {
		old.pins.wait()
	}
	return old
}

// applyPublishLocked runs one ingest batch through the double-generation
// protocol: apply to the shadow, publish it, apply to the retired view,
// keep it as the next shadow. On any error the shadow is discarded and the
// published view is left untouched (a clean generation is re-cloned on the
// next batch). Callers hold db.mu.
func (db *Database) applyPublishLocked(ms []Mapping, seqs []uint64) error {
	if db.shadow == nil {
		sh, err := db.cur.Load().clone()
		if err != nil {
			return err
		}
		db.shadow = sh
	}
	next := db.shadow
	db.shadow = nil
	if err := next.apply(ms, seqs); err != nil {
		return err
	}
	// Version the batch: the pre-batch published view and the post-batch
	// shadow are both stable here (publishing requires db.mu), which is the
	// one window where the epoch's cell-wise delta can be computed against
	// immutable endpoints.
	cur := db.cur.Load()
	next.epoch = cur.epoch + 1
	db.recordDeltaLocked(cur, next)
	old := db.publishLocked(next)
	db.bumpEpochLocked()
	if err := old.apply(ms, seqs); err != nil {
		// The published generation is complete; only the would-be shadow is
		// torn. Drop it and let the next batch re-clone.
		return err
	}
	old.epoch = next.epoch
	db.shadow = old
	return nil
}
