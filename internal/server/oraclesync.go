package server

import (
	"visualprint/internal/bloom"
	"visualprint/internal/obs"
	"visualprint/internal/odelta"
)

// Server side of versioned oracle distribution (DESIGN.md "Oracle
// distribution"). Every ingest batch bumps the oracle epoch; the delta ring
// retains the per-epoch cell-wise odelta records so a client within the
// window is carried forward by a compressed delta chain while older clients
// (or clients of a freshly restarted server, whose ring starts empty) fall
// back to a full blob.

// oracleDeltaWindow bounds the per-epoch delta ring: with one epoch per
// wardrive upload, 64 epochs of history lets a client poll-free for a long
// session while each retained record is only the sparse cell set one batch
// touched. Past it a client full-syncs.
const oracleDeltaWindow = 64

// oracleDeltaBudget caps the ring's byte total (64 MB); dense epochs near
// the cutoff ratio can be large, so the ring evicts oldest-first on bytes
// as well as length.
const oracleDeltaBudget = 64 << 20

// oracleDeltaCompareFloor: delta chains under this size are served without
// comparing against the full blob (which would cost a gzip of the whole
// oracle); above it — or above the last observed blob size once one is
// cached — the chain must win an exact size comparison to be sent.
const oracleDeltaCompareFloor = 64 << 10

// OracleSyncResult is the engine's answer to a versioned sync request:
// exactly one of Unchanged, Delta or Blob describes the transfer.
type OracleSyncResult struct {
	// Epoch and Inserts identify the oracle version the client holds after
	// applying this result.
	Epoch   uint64
	Inserts uint64
	// Unchanged: the client's (epoch, inserts) already matches the server.
	Unchanged bool
	// Delta, when non-nil, is an odelta.EncodeChain payload carrying the
	// client from its cited version to (Epoch, Inserts).
	Delta []byte
	// Blob, when non-nil, is the gzip full oracle serialization.
	Blob []byte
}

// recordDeltaLocked appends the epoch step cur→next to the delta ring.
// Callers hold db.mu; both views are immutable. Failure is not fatal to the
// ingest — the ring is cleared (continuity would be broken) and clients
// fall back to full syncs until deltas accumulate again.
func (db *Database) recordDeltaLocked(cur, next *dbView) {
	rec, err := odelta.Diff(cur.oracle, next.oracle, cur.epoch, next.epoch, 0)
	if err != nil {
		db.deltaRing, db.deltaBytes = nil, 0
		obs.Warnf("server: oracle delta for epoch %d failed (%v); delta ring reset", next.epoch, err)
		return
	}
	if n := len(db.deltaRing); n > 0 && db.deltaRing[n-1].ToEpoch != rec.FromEpoch {
		// A reset/recovery left a gap; restart the ring at this epoch.
		db.deltaRing, db.deltaBytes = nil, 0
	}
	db.deltaRing = append(db.deltaRing, rec)
	db.deltaBytes += int64(len(rec.Payload))
	for len(db.deltaRing) > oracleDeltaWindow || (db.deltaBytes > oracleDeltaBudget && len(db.deltaRing) > 1) {
		db.deltaBytes -= int64(len(db.deltaRing[0].Payload))
		db.deltaRing = db.deltaRing[1:]
	}
}

// OracleEpoch returns the live oracle's version identity — the epoch the
// engine stamped on the last ingest batch and the matching insert count —
// from the published view.
func (db *Database) OracleEpoch() (epoch, inserts uint64) {
	v := db.cur.Load()
	return v.epoch, v.oracle.Inserts()
}

// OracleSyncSince answers a versioned sync request: given the version the
// client holds (zero values for "nothing"), return the cheapest transfer
// that makes it current — nothing, a delta chain, or a full blob.
func (db *Database) OracleSyncSince(haveEpoch, haveInserts uint64) (OracleSyncResult, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	// cur is stable under the read lock: publishing requires the write lock.
	v := db.cur.Load()
	res := OracleSyncResult{Epoch: v.epoch, Inserts: v.oracle.Inserts()}
	if haveEpoch == v.epoch && haveInserts == res.Inserts {
		// Both coordinates must match: insert counts alone collide across
		// compaction/rebuild histories (the unsoundness the epoch fixes).
		res.Unchanged = true
		return res, nil
	}
	if chain := db.deltaChainLocked(haveEpoch, haveInserts, v.epoch); chain != nil {
		enc := odelta.EncodeChain(chain)
		floor := db.lastBlobLen.Load()
		if floor <= 0 {
			floor = oracleDeltaCompareFloor
		}
		if int64(len(enc)) < floor {
			res.Delta = enc
			return res, nil
		}
		// The chain approaches (or exceeds) the blob it replaces: each
		// record is sparse, but a long run of dense epochs can sum past one
		// full snapshot. Pay the gzip and answer whichever is smaller.
		blob, err := bloom.GzipBytes(v.oracle)
		if err != nil {
			return OracleSyncResult{}, err
		}
		db.lastBlobLen.Store(int64(len(blob)))
		if len(blob) < len(enc) {
			res.Blob = blob
		} else {
			res.Delta = enc
		}
		return res, nil
	}
	blob, err := bloom.GzipBytes(v.oracle)
	if err != nil {
		return OracleSyncResult{}, err
	}
	db.lastBlobLen.Store(int64(len(blob)))
	res.Blob = blob
	return res, nil
}

// deltaChainLocked returns the ring suffix carrying (haveEpoch,
// haveInserts) to curEpoch, nil when the ring cannot serve it. A Full
// record inside the matched suffix resets the chain base, so the suffix is
// trimmed to start at the last one. Callers hold db.mu (either side).
func (db *Database) deltaChainLocked(haveEpoch, haveInserts, curEpoch uint64) []*odelta.Record {
	ring := db.deltaRing
	n := len(ring)
	if n == 0 || ring[n-1].ToEpoch != curEpoch {
		return nil
	}
	start := -1
	for i, rec := range ring {
		if rec.FromEpoch == haveEpoch {
			if rec.FromInserts != haveInserts && !rec.Full {
				// Same epoch number, different history (e.g. the client
				// synced against a different pre-failover timeline). A
				// sparse delta would corrupt its oracle; force a full sync.
				return nil
			}
			start = i
			break
		}
	}
	if start < 0 {
		return nil
	}
	chain := ring[start:]
	for i := len(chain) - 1; i > 0; i-- {
		if chain[i].Full {
			chain = chain[i:]
			break
		}
	}
	return chain
}
