package server

import (
	"context"
	"encoding/binary"
	"errors"
	"strings"
	"time"
)

// Replication RPCs. These are fleet-internal calls used by repl.Node and
// repl.Sentinel (and exposed for tooling); they are never venue-scoped —
// replication covers the server's default venue — so every request is sent
// venue-bare regardless of the client's pinned venue.

// ReplStatus is one fleet member's self-report (msgReplState).
type ReplStatus struct {
	Role    Role
	Epoch   uint64
	Applied uint64
	// Staleness is how long ago a replica last heard from its primary
	// (zero on the primary).
	Staleness time.Duration
	// Primary is the primary's address as the member knows it.
	Primary string
}

// ReplStatus asks the server for its replication state.
func (c *Client) ReplStatus(ctx context.Context) (ReplStatus, error) {
	resp, err := c.roundTrip(ctx, routePrimary, reqHeader{}, msgReplState, nil, msgReplStateResult)
	if err != nil {
		return ReplStatus{}, err
	}
	if len(resp) < 25 {
		return ReplStatus{}, errRemote{msg: "short repl state response"}
	}
	return ReplStatus{
		Role:      Role(resp[0]),
		Epoch:     binary.LittleEndian.Uint64(resp[1:]),
		Applied:   binary.LittleEndian.Uint64(resp[9:]),
		Staleness: time.Duration(binary.LittleEndian.Uint64(resp[17:])) * time.Millisecond,
		Primary:   string(resp[25:]),
	}, nil
}

// ReplSnapshot requests the full-sync transfer: the primary's serialized
// database state and the WAL offset it covers.
func (c *Client) ReplSnapshot(ctx context.Context) (seq uint64, blob []byte, err error) {
	resp, err := c.roundTrip(ctx, routePrimary, reqHeader{}, msgReplSnapshot, nil, msgReplSnapshotResult)
	if err != nil {
		return 0, nil, err
	}
	if len(resp) < 8 {
		return 0, nil, errRemote{msg: "short repl snapshot response"}
	}
	return binary.LittleEndian.Uint64(resp), resp[8:], nil
}

// ReplBatch is one fetched slice of the primary's WAL.
type ReplBatch struct {
	// FirstSeq is the sequence number of Records[0] (== the requested
	// position; meaningful even when Records is empty).
	FirstSeq uint64
	// Head is the primary's durable record count at response time — the
	// replica's lag is Head - (FirstSeq + len(Records)).
	Head uint64
	// Records are raw WAL record payloads, appended verbatim on the
	// replica so both logs stay byte-identical.
	Records [][]byte
}

// ReplFetch pulls up to max WAL records starting at from, long-polling up
// to wait when the replica is at the head. The from position doubles as
// the replica's acknowledgement: requesting record k acknowledges [0,k).
// id names the requesting replica for the primary's ack bookkeeping.
func (c *Client) ReplFetch(ctx context.Context, from uint64, max int, wait time.Duration, id string) (ReplBatch, error) {
	if max < 0 {
		max = 0
	}
	waitMs := wait.Milliseconds()
	if waitMs < 0 {
		waitMs = 0
	}
	req := make([]byte, 16+len(id))
	binary.LittleEndian.PutUint64(req, from)
	binary.LittleEndian.PutUint32(req[8:], uint32(max))
	binary.LittleEndian.PutUint32(req[12:], uint32(waitMs))
	copy(req[16:], id)
	resp, err := c.roundTrip(ctx, routePrimary, reqHeader{}, msgReplFetch, req, msgReplBatch)
	if err != nil {
		return ReplBatch{}, err
	}
	firstSeq, head, records, err := decodeReplBatch(resp)
	if err != nil {
		return ReplBatch{}, errRemote{msg: err.Error()}
	}
	return ReplBatch{FirstSeq: firstSeq, Head: head, Records: records}, nil
}

// ReplFollow tells the server that, as of epoch, the primary is addr
// (demoting it if it believed otherwise). Rejected with an error when the
// server's epoch is newer.
func (c *Client) ReplFollow(ctx context.Context, epoch uint64, addr string) error {
	req := make([]byte, 8+len(addr))
	binary.LittleEndian.PutUint64(req, epoch)
	copy(req[8:], addr)
	_, err := c.roundTrip(ctx, routePrimary, reqHeader{}, msgReplFollow, req, msgReplAck)
	return err
}

// ReplPromote tells the server to become the primary at epoch. Rejected
// with an error when the server's epoch is newer.
func (c *Client) ReplPromote(ctx context.Context, epoch uint64) error {
	req := make([]byte, 8)
	binary.LittleEndian.PutUint64(req, epoch)
	_, err := c.roundTrip(ctx, routePrimary, reqHeader{}, msgReplPromote, req, msgReplAck)
	return err
}

// IsReplCompacted reports whether a fetch failed because the requested WAL
// position is no longer individually retained on the primary — the signal
// to restart from a full snapshot transfer. The store's typed sentinel
// does not cross the wire (it maps to the generic code), so this matches
// on the preserved message.
func IsReplCompacted(err error) bool {
	var r errRemote
	if !errors.As(err, &r) || r.code != errCodeGeneric {
		return false
	}
	return strings.Contains(r.msg, "already compacted")
}
