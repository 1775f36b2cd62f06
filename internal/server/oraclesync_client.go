package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"time"

	"visualprint/internal/codec"
	"visualprint/internal/core"
	"visualprint/internal/odelta"
)

// Client side of versioned oracle distribution: the OracleSync handle is
// the one API for keeping a device's uniqueness oracle current. One Sync
// call fetches or refreshes as needed — answered by the server with
// nothing, a compressed cell-delta chain, or a full blob, whichever is
// cheapest for the version the handle holds — and Watch turns the same
// handle push-driven, resyncing on the server's epoch-bump notifications
// instead of polling.

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
	rt, resp, err := h.c.invoke(ctx, routeRead, reqHeader{venue: h.c.venue}, msgOracleSync, encodeOracleVersion(haveEpoch, haveInserts))
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

// OracleUpdate is one push-driven refresh delivered by Watch: the handle's
// oracle after syncing to the pushed epoch. A non-nil Err is the watch's
// terminal failure; the channel closes after delivering it.
type OracleUpdate struct {
	Oracle  *core.Oracle
	Epoch   uint64
	Inserts uint64
	Err     error
}

// Watch subscribes the handle to the server's epoch-bump notifications and
// returns a channel of updates: whenever the server's oracle advances past
// the held version, the handle syncs (delta where possible) and delivers
// the result. The server pushes the current version immediately on
// subscribing, so a stale handle updates without waiting for the next
// ingest. Bursts coalesce — a slow consumer sees the latest version, not
// every intermediate one. The subscription survives connection loss by
// resubscribing after reconnect; it ends when ctx is canceled (the channel
// closes) or on a terminal failure (delivered as OracleUpdate.Err, then
// closed).
func (h *OracleSync) Watch(ctx context.Context) (<-chan OracleUpdate, error) {
	epoch, _, _ := h.Version()
	id, ch, err := h.c.subscribe(ctx, epoch)
	if err != nil {
		return nil, err
	}
	// The server acks a subscription by pushing the current version
	// immediately — wait for that first frame here so a refused
	// subscription fails synchronously instead of inside the stream.
	var first rpcResult
	select {
	case <-ctx.Done():
		h.c.unsubscribe(id)
		h.c.sendCancel(id)
		return nil, ctx.Err()
	case first = <-ch:
	}
	switch {
	case first.err != nil:
		h.c.unsubscribe(id)
		return nil, first.err
	case first.typ == msgError:
		h.c.unsubscribe(id)
		return nil, decodeErrorPayload(first.payload)
	case first.typ != msgOracleEpoch:
		h.c.unsubscribe(id)
		return nil, errRemote{msg: "unexpected response type"}
	}
	out := make(chan OracleUpdate, 1)
	go h.watchLoop(ctx, id, ch, first, out)
	return out, nil
}

// watchLoop is Watch's stream driver: one epoch event in, one synced
// update out, resubscribing across connection loss. first is the
// subscription ack Watch already consumed.
func (h *OracleSync) watchLoop(ctx context.Context, id uint32, ch chan rpcResult, first rpcResult, out chan<- OracleUpdate) {
	defer close(out)
	fail := func(err error) {
		select {
		case out <- OracleUpdate{Err: err}:
		case <-ctx.Done():
		}
	}
	r := first
	for {
		switch {
		case r.err != nil:
			// Transport death. The version identity survives in the handle,
			// so the catch-up sync after resubscribing is usually a small
			// delta chain covering the missed epochs.
			nid, nch, err := h.resubscribe(ctx)
			if err != nil {
				if ctx.Err() == nil {
					fail(err)
				}
				return
			}
			id, ch = nid, nch
		case r.typ == msgError:
			if err := decodeErrorPayload(r.payload); ctx.Err() == nil {
				fail(err)
			}
			return
		case r.typ == msgOracleEpoch:
			epoch, inserts, err := decodeOracleVersion(r.payload)
			if err != nil {
				fail(errRemote{msg: "bad epoch event"})
				return
			}
			he, hi, ok := h.Version()
			if !ok || he != epoch || hi != inserts {
				o, err := h.Sync(ctx)
				if err != nil {
					if ctx.Err() == nil {
						fail(err)
					}
					return
				}
				// Deliver a snapshot: the handle patches its held oracle in
				// place on the next delta sync, which must not race with a
				// consumer still reading this update.
				snap := o.Clone()
				e2, i2, _ := h.Version()
				select {
				case out <- OracleUpdate{Oracle: snap, Epoch: e2, Inserts: i2}:
				case <-ctx.Done():
					h.c.unsubscribe(id)
					h.c.sendCancel(id)
					return
				}
			}
		default:
			fail(errRemote{msg: "unexpected response type"})
			return
		}
		select {
		case <-ctx.Done():
			h.c.unsubscribe(id)
			h.c.sendCancel(id)
			return
		case r = <-ch:
		}
	}
}

// resubscribe re-establishes a watch stream after connection loss:
// reconnect, subscribe, jittered-free exponential backoff between
// attempts. Transport errors retry (the server may be restarting); any
// other failure is terminal for the watch.
func (h *OracleSync) resubscribe(ctx context.Context) (uint32, chan rpcResult, error) {
	delay := 50 * time.Millisecond
	for {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		rerr := h.c.reconnect(ctx)
		if rerr == nil {
			epoch, _, _ := h.Version()
			id, ch, err := h.c.subscribe(ctx, epoch)
			if err == nil {
				return id, ch, nil
			}
			if !errors.Is(err, ErrConnectionLost) {
				return 0, nil, err
			}
		} else if h.c.dialFn == nil {
			// No dialer: the connection cannot come back.
			return 0, nil, rerr
		}
		select {
		case <-time.After(delay):
			delay *= 2
			if delay > 2*time.Second {
				delay = 2 * time.Second
			}
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		}
	}
}

// subscribe opens an oracle-epoch subscription stream: one
// msgSubscribeOracle frame whose request ID stays live in subs — not
// pending — so every pushed msgOracleEpoch event keeps routing to the
// returned mailbox until unsubscribe. The mailbox is latest-wins (see
// deliverLatest). Only the frame write is deadline-bounded; the stream
// itself is long-lived and carries no header deadline.
func (c *Client) subscribe(ctx context.Context, haveEpoch uint64) (uint32, chan rpcResult, error) {
	payload := make([]byte, 8)
	binary.LittleEndian.PutUint64(payload, haveEpoch)
	return c.send(ctx, true, reqHeader{venue: c.venue}, msgSubscribeOracle, payload)
}

// unsubscribe retires a subscription stream's demux route; late frames for
// the ID are dropped.
func (c *Client) unsubscribe(id uint32) {
	c.mu.Lock()
	delete(c.subs, id)
	c.mu.Unlock()
}
