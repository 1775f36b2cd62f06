package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"time"

	"visualprint/internal/core"
	"visualprint/internal/lsh"
	"visualprint/internal/mathx"
	"visualprint/internal/obs"
	"visualprint/internal/store"
)

// Durable database lifecycle. Open attaches a data directory to an empty
// Database: the newest valid snapshot is loaded, the WAL tail is replayed
// through the same dbView.apply path live ingest uses (so the recovered
// structures — LSH bucket slices, position ids, oracle counters — are
// bit-identical to the pre-crash state), and a background snapshotter
// starts folding the WAL into fresh snapshots whenever it outgrows
// walCompactBytes.
//
// Snapshot payload layout (inside the store's checksummed container):
//
//	[8-byte magic][lsh index][uint64 n][n Vec3 positions][n uint64 seqs]
//	[bounds: uint8 has, lo Vec3, hi Vec3][oracle]
//
// The oracle delta ring is deliberately not persisted: after a restart it
// starts empty and clients syncing against a pre-crash version transparently
// fall back to a full oracle download.

// dbSnapMagicSeq versions the database snapshot payload. It is the only
// layout: the untagged predecessor format (no sequence array, 152-byte WAL
// entries) written by non-replicated servers before the engines were unified
// is refused at Open, never reinterpreted (DESIGN.md "Multi-venue &
// sharding").
const dbSnapMagicSeq = "VPDB2\x00\x00\x00"

// Open attaches dir as the database's durable backing store, recovering
// any previously persisted state into the (required to be empty) in-memory
// structures. After Open, every ingest is write-ahead logged; Close
// releases the directory.
func (db *Database) Open(dir string) error { return db.open(dir, nil) }

// open is Open's body; install, when non-nil, runs between the store's
// Open and Recover — the hook ReplaceFromSnapshot uses to seed the fresh
// directory with a primary-shipped snapshot before recovery loads it.
func (db *Database) open(dir string, install func(*store.Store) error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.store != nil {
		return errors.New("server: database already has a data directory")
	}
	if len(db.cur.Load().positions) != 0 {
		return errors.New("server: Open requires an empty database")
	}
	st, err := store.Open(dir, store.Options{Metrics: db.met.store})
	if err != nil {
		return err
	}
	if install != nil {
		if err := install(st); err != nil {
			st.Close()
			return err
		}
	}
	// Recovery builds a detached view — the published (empty) view keeps
	// serving lock-free readers untouched until the recovered state is
	// complete — then publishes it once at the end. The WAL tail replays
	// through the same dbView.apply path live ingest uses, in place on the
	// unpublished view, so the recovered structures are bit-identical to the
	// pre-crash state.
	rv, err := newEmptyView(db.cfg)
	if err != nil {
		st.Close()
		return err
	}
	recoverStart := time.Now()
	err = st.Recover(
		func(r io.Reader) error {
			v, err := db.loadState(r)
			if err != nil {
				return err
			}
			rv = v
			return nil
		},
		func(payload []byte) error {
			ms, seqs, err := decodeSeqMappings(payload)
			if err != nil {
				return err
			}
			return rv.apply(ms, seqs)
		},
	)
	if err != nil {
		st.Close()
		return err
	}
	// The epoch is anchored to the store's record sequence — one WAL record
	// per ingest batch — so the version history survives restarts and full
	// syncs, and replicas replaying the same records serve the same epochs.
	rv.epoch = st.Seq()
	db.cur.Store(rv)
	// The delta ring restarts empty: syncs citing pre-crash versions fall
	// back to a full download.
	db.deltaRing, db.deltaBytes = nil, 0
	db.recoverDur = time.Since(recoverStart)
	db.store = st
	db.dataDir = dir
	db.snapKick = make(chan struct{}, 1)
	db.quit = make(chan struct{})
	db.snapDone = make(chan struct{})
	db.met.recovery.Set(int64(db.recoverDur))
	db.met.mappings.Set(int64(len(rv.positions)))
	go db.snapshotter()
	return nil
}

// Close detaches the data directory: pending WAL commits are flushed, the
// background snapshotter stops, and file handles are released. The
// database remains usable in-memory. Close on an in-memory database is a
// no-op.
func (db *Database) Close() error {
	db.mu.Lock()
	st := db.store
	db.store = nil
	db.mu.Unlock()
	if st == nil {
		return nil
	}
	close(db.quit)
	<-db.snapDone
	return st.Close()
}

// ReplaceFromSnapshot discards the database's entire durable and in-memory
// state and rebuilds both from a primary-shipped snapshot blob covering the
// first seq WAL records — the replica full-sync path. On return the
// database's state equals the primary's at offset seq and its WAL continues
// from seq, so subsequently streamed records land at identical positions.
// Concurrent reads during the swap see either the old or the new state;
// the fleet role gate (RoleCandidate) redirects clients for the duration.
func (db *Database) ReplaceFromSnapshot(seq uint64, blob []byte) error {
	db.mu.RLock()
	st, dir := db.store, db.dataDir
	db.mu.RUnlock()
	if dir == "" {
		return errors.New("server: replication full-sync requires a durable database")
	}
	// st may already be nil if a previous attempt failed after Close — the
	// wipe-and-reopen below is idempotent, so just retry from there.
	if st != nil {
		if err := db.Close(); err != nil {
			return err
		}
	}
	if err := store.Wipe(dir); err != nil {
		return err
	}
	db.mu.Lock()
	err := db.resetLocked()
	db.mu.Unlock()
	if err != nil {
		return err
	}
	return db.open(dir, func(st *store.Store) error {
		return st.InstallSnapshot(seq, blob)
	})
}

// resetLocked publishes a fresh empty view, returning the in-memory state
// to a freshly built shard's (a subsequent open's Recover then repopulates
// it from the installed snapshot). Callers hold db.mu.
func (db *Database) resetLocked() error {
	v, err := newEmptyView(db.cfg)
	if err != nil {
		return err
	}
	db.cur.Store(v)
	db.deltaRing, db.deltaBytes = nil, 0
	db.met.mappings.Set(0)
	return nil
}

// Compact synchronously folds the current state into a fresh durable
// snapshot and truncates the WAL. It is what the background snapshotter
// runs on threshold, exposed for deliberate checkpoints (vpwardrive after
// a bulk upload; tests; benchmarks). Concurrent Compact and snapshotter
// runs are safe: the store serializes snapshot writers internally, and
// whichever runs second observes an already-current snapshot and no-ops.
// An in-memory database has nothing to fold and returns nil.
//
// Ingest stalls for the duration: serialization and fsync happen under the
// read lock Ingest's WAL reservation needs for writing. At the 64 MB
// threshold (walCompactBytes) this is an ingest latency spike of up to a few
// seconds. Locates are unaffected — they read immutable published views and
// never touch db.mu (see view.go).
func (db *Database) Compact() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.store == nil {
		return nil
	}
	// Holding the read lock excludes Ingest (whose WAL reservation needs
	// the write lock) for the duration, so cur is stable and the serialized
	// state is exactly the state at the log head.
	return db.compactLockedR(db.store)
}

// compactLockedR folds the published view into a durable snapshot with
// tracing: a compaction slower than the tracer's threshold lands in the
// slow-request ring with its duration attributed to the snapshot stage.
// Callers hold db.mu (read side), which keeps ingest from publishing past
// the log head meanwhile.
func (db *Database) compactLockedR(st *store.Store) error {
	m := db.met
	tr := m.trace.Begin("compact")
	t0 := time.Now()
	v := db.cur.Load()
	err := st.Snapshot(func(w io.Writer) error { return db.writeState(v, w) })
	tr.StageSince(obs.StageSnapshot, t0)
	m.trace.End(tr)
	return err
}

// snapshotter runs WAL compactions in the background, one at a time, when
// Ingest observes the log over threshold.
func (db *Database) snapshotter() {
	defer close(db.snapDone)
	for {
		select {
		case <-db.quit:
			return
		case <-db.snapKick:
			db.mu.RLock()
			st := db.store
			var err error
			if st != nil {
				err = db.compactLockedR(st)
			}
			if err != nil {
				obs.Warnf("server: background wal compaction: %v", err)
			}
			db.mu.RUnlock()
		}
	}
}

// writeState serializes one view's full state (views are immutable, so any
// view is stable for the duration).
func (db *Database) writeState(v *dbView, w io.Writer) error {
	if _, err := io.WriteString(w, dbSnapMagicSeq); err != nil {
		return err
	}
	if _, err := v.index.WriteTo(w); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(len(v.positions))); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, v.positions); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, v.seqs); err != nil {
		return err
	}
	var has byte
	if v.hasBounds {
		has = 1
	}
	if err := binary.Write(w, binary.LittleEndian, has); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, []mathx.Vec3{v.lo, v.hi}); err != nil {
		return err
	}
	if _, err := v.oracle.WriteTo(w); err != nil {
		return err
	}
	return nil
}

// loadState deserializes a snapshot into a fresh detached view, refusing
// state whose parameters disagree with the database's configuration (a
// server restarted with a different LSH family or oracle sizing would
// otherwise silently mis-hash every query) — the index before it is built.
// The caller (open's recovery path) publishes the view once the WAL tail
// has been replayed into it.
func (db *Database) loadState(r io.Reader) (*dbView, error) {
	magic := make([]byte, len(dbSnapMagicSeq))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, err
	}
	if string(magic) != dbSnapMagicSeq {
		return nil, fmt.Errorf("server: bad database snapshot magic %q (want %q)", magic, dbSnapMagicSeq)
	}
	ix, err := lsh.ReadIndex(r, db.cfg.Oracle.LSH)
	if err != nil {
		return nil, err
	}
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n != uint64(ix.Len()) {
		return nil, fmt.Errorf("server: snapshot has %d positions for %d descriptors", n, ix.Len())
	}
	positions := make([]mathx.Vec3, n)
	if err := binary.Read(r, binary.LittleEndian, positions); err != nil {
		return nil, err
	}
	seqs := make([]uint64, n)
	if err := binary.Read(r, binary.LittleEndian, seqs); err != nil {
		return nil, err
	}
	var has byte
	if err := binary.Read(r, binary.LittleEndian, &has); err != nil {
		return nil, err
	}
	bounds := make([]mathx.Vec3, 2)
	if err := binary.Read(r, binary.LittleEndian, bounds); err != nil {
		return nil, err
	}
	oracle, err := core.Read(r)
	if err != nil {
		return nil, err
	}
	if op := oracle.Params(); op != db.cfg.Oracle {
		return nil, fmt.Errorf("server: snapshot oracle params differ from configured")
	}
	return &dbView{
		index:     ix,
		positions: positions,
		seqs:      seqs,
		hasBounds: has == 1,
		lo:        bounds[0],
		hi:        bounds[1],
		oracle:    oracle,
	}, nil
}
