package server

import (
	"bytes"
	"context"
	"sync"

	"visualprint/internal/codec"
	"visualprint/internal/core"
	"visualprint/internal/odelta"
)

// Client side of versioned oracle distribution: the OracleSync handle is
// the one API for keeping a device's uniqueness oracle current. One Sync
// call fetches or refreshes as needed — answered by the server with
// nothing, a compressed cell-delta chain, or a full blob, whichever is
// cheapest for the version the handle holds. The app syncs at its own
// cadence; an unchanged answer costs 16 bytes.

// noVersion is the impossible version identity a handle without an oracle
// cites: it matches no server epoch and no delta-ring entry, so the server
// always answers with a full blob.
const noVersion = ^uint64(0)

// OracleSync is the oracle-distribution handle: it owns one downloaded
// uniqueness oracle plus its version identity (epoch, inserts) and keeps
// them current against the server for the client's venue. Build one with
// Client.OracleSync; methods are safe for concurrent use, sharing the
// client's single connection.
type OracleSync struct {
	c *Client

	// mu guards the held oracle and its version, and serializes Sync calls
	// (two concurrent syncs patching one oracle would corrupt it).
	mu      sync.Mutex
	oracle  *core.Oracle
	epoch   uint64
	inserts uint64
	bytes   int64
}

// OracleSync returns the oracle-distribution handle for the client's venue
// (its WithVenue pin, or the default venue). The handle starts empty; the
// first Sync downloads the full oracle and later Syncs ride the server's
// delta window. Create one handle per oracle consumer and keep it — the version
// identity it accumulates is what makes refreshes cheap.
func (c *Client) OracleSync() *OracleSync { return &OracleSync{c: c} }

// Oracle returns the held oracle (nil before the first successful Sync).
// The handle retains ownership: the same instance is patched in place by
// delta syncs, so callers needing a frozen copy must Clone it.
func (h *OracleSync) Oracle() *core.Oracle {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.oracle
}

// Version returns the held oracle's version identity. ok is false before
// the first successful Sync.
func (h *OracleSync) Version() (epoch, inserts uint64, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.epoch, h.inserts, h.oracle != nil
}

// TransferBytes returns the cumulative response payload bytes this handle
// has downloaded across all syncs — the numerator of the
// bytes-per-client-per-update accounting.
func (h *OracleSync) TransferBytes() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bytes
}

// Sync brings the held oracle up to the server's latest epoch and returns
// it. The first call downloads the full oracle; later calls cite the held
// version and receive the cheapest sufficient transfer — an unchanged ack,
// a compressed cell-delta chain, or (past the server's delta window) a
// fresh full blob.
func (h *OracleSync) Sync(ctx context.Context) (*core.Oracle, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.syncLocked(ctx, false)
}

func (h *OracleSync) syncLocked(ctx context.Context, retried bool) (*core.Oracle, error) {
	haveEpoch, haveInserts := noVersion, noVersion
	if h.oracle != nil {
		haveEpoch, haveInserts = h.epoch, h.inserts
	}
	rt, resp, err := h.c.invoke(ctx, true, reqHeader{venue: h.c.venue}, msgOracleSync, encodeOracleVersion(haveEpoch, haveInserts))
	if err != nil {
		return nil, err
	}
	h.bytes += int64(len(resp))
	switch rt {
	case msgOracleSyncNone:
		epoch, inserts, err := decodeOracleVersion(resp)
		if err != nil || h.oracle == nil || epoch != haveEpoch || inserts != haveInserts {
			return nil, errRemote{msg: "bad oracle sync ack"}
		}
		return h.oracle, nil
	case msgOracleSyncDelta:
		recs, err := odelta.DecodeChain(resp)
		if err != nil {
			return nil, err
		}
		if len(recs) == 0 {
			return nil, errRemote{msg: "empty oracle delta chain"}
		}
		o, err := odelta.ApplyChain(h.oracle, recs)
		if err != nil {
			// The chain does not fit the held oracle (e.g. a different
			// server history answered after a failover). One forced full
			// sync repairs it; a second mismatch is a real protocol error.
			if retried {
				return nil, err
			}
			h.oracle = nil
			return h.syncLocked(ctx, true)
		}
		last := recs[len(recs)-1]
		h.oracle, h.epoch, h.inserts = o, last.ToEpoch, last.ToInserts
		return o, nil
	case msgOracleSyncFull:
		epoch, blob, err := decodeOracleSyncFull(resp)
		if err != nil {
			return nil, err
		}
		raw, err := codec.Gunzip(blob)
		if err != nil {
			return nil, err
		}
		o, err := core.Read(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		h.oracle, h.epoch, h.inserts = o, epoch, o.Inserts()
		return o, nil
	default:
		return nil, errRemote{msg: "unexpected response type"}
	}
}
