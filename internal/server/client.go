package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"visualprint/internal/codec"
	"visualprint/internal/obs"
	"visualprint/internal/pose"
	"visualprint/internal/sift"
)

// RetryPolicy controls client-side retries: exponential backoff with
// jitter, applied only to errors that are provably safe to retry.
// ErrOverloaded is always retryable — the server shed the request before
// doing any work. A lost connection is retried only for idempotent
// requests, and only when the client can redial (it was built by Dial).
// Request-level failures — ErrNoConsensus, ErrTooFewMatches, a deadline —
// are answers, not faults, and are never retried.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first;
	// values <= 1 disable retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry. Each subsequent
	// retry multiplies it by Multiplier (default 2), capped at MaxDelay.
	BaseDelay  time.Duration
	MaxDelay   time.Duration
	Multiplier float64
	// Jitter randomizes each delay within ±(Jitter/2) of its nominal
	// value, in [0, 1]; it decorrelates clients retrying a shared server.
	Jitter float64
}

// DefaultRetryPolicy is a reasonable interactive-use policy: four attempts
// spanning roughly a quarter second of backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    250 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.5,
	}
}

// delay returns the jittered backoff before retry number n (1-based).
func (p RetryPolicy) delay(n int) time.Duration {
	d := float64(p.BaseDelay)
	mult := p.Multiplier
	if mult <= 0 {
		mult = 2
	}
	for i := 1; i < n; i++ {
		d *= mult
	}
	if max := float64(p.MaxDelay); max > 0 && d > max {
		d = max
	}
	if j := p.Jitter; j > 0 {
		d *= 1 + j*(rand.Float64()-0.5)
	}
	return time.Duration(d)
}

// dialConfig collects the options shared by Dial, DialContext and
// NewClient.
type dialConfig struct {
	timeout time.Duration
	retry   RetryPolicy
	venue   string
}

// DialOption configures a client at construction.
type DialOption func(*dialConfig)

// WithDialTimeout bounds each TCP dial — the initial connect and any
// automatic reconnect. Zero means no bound beyond the caller's context.
func WithDialTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.timeout = d }
}

// WithRetryPolicy enables client-side retries. The zero policy (the
// default) disables them: every error surfaces on the first attempt.
func WithRetryPolicy(p RetryPolicy) DialOption {
	return func(c *dialConfig) { c.retry = p }
}

// WithVenue pins every request the client sends to the named venue; it is
// the one way to scope a client. The empty name (the default) addresses the
// server's default venue. Metrics and replication requests are server-wide
// and ignore it.
func WithVenue(name string) DialOption {
	return func(c *dialConfig) { c.venue = name }
}

// Client is a VisualPrint protocol client. It is safe for concurrent use:
// requests are multiplexed over the single connection with uint32 request
// IDs, so concurrent calls overlap on the wire and on the server instead of
// queueing behind a lock. A demux goroutine routes each response frame to
// the caller whose request it answers.
//
// Every method takes a context, and the context is honored end to end: a
// deadline travels to the server in the request header (the server abandons
// the pipeline when it expires), and cancellation both abandons the local
// wait and sends a msgCancel frame so the server stops working on the
// request. The byte counters feed the Figure 14 bandwidth accounting.
type Client struct {
	// dialFn redials the server after a lost connection; nil (NewClient
	// over an existing conn) disables automatic reconnection.
	dialFn func(context.Context) (net.Conn, error)
	retry  RetryPolicy

	// venue addresses every venue-scoped call (WithVenue; empty = the
	// default venue).
	venue string

	// target is the address the dialer currently points at (string; only
	// set by Dial/DialContext). Redirect-following on ErrNotPrimary stores
	// the new primary here and reconnects.
	target atomic.Value

	// writeMu serializes frame writes. Reconnection swaps the conn under
	// writeMu+mu, so a write under writeMu never races the swap.
	writeMu sync.Mutex
	lastID  uint32 // request ID source, guarded by writeMu; IDs start at 1

	mu      sync.Mutex
	conn    net.Conn
	gen     int                       // bumped per reconnect; stale demux loops exit
	closed  bool                      // Close called; no further reconnects
	pending map[uint32]chan rpcResult // in-flight requests by ID
	readErr error                     // terminal demux error, sticky until reconnect

	sent, received atomic.Int64
}

// rpcResult is one demuxed response (or a terminal transport error).
type rpcResult struct {
	typ     byte
	payload []byte
	err     error
}

// NewClient wraps an established connection (TCP or net.Pipe), announcing
// the protocol version and starting the response demux loop. Options configure
// retries and the venue; without a dialer (use Dial for that) a lost
// connection is not reconnectable.
func NewClient(conn net.Conn, opts ...DialOption) *Client {
	var cfg dialConfig
	for _, o := range opts {
		o(&cfg)
	}
	c := &Client{
		conn: conn, pending: make(map[uint32]chan rpcResult),
		retry: cfg.retry, venue: cfg.venue,
	}
	if err := writePreamble(conn); err != nil {
		// Surface the broken transport through the demux path so every
		// call fails with it rather than hanging.
		c.failGen(err, 0)
		return c
	}
	c.sent.Add(preambleSize)
	go c.demux(conn, 0)
	return c
}

// Dial connects to a VisualPrint server over TCP. With a retry policy
// configured, a client built by Dial also redials automatically when the
// connection is lost mid-call (idempotent requests only).
func Dial(addr string, opts ...DialOption) (*Client, error) {
	return DialContext(context.Background(), addr, opts...)
}

// DialContext is Dial honoring ctx for the initial connection.
func DialContext(ctx context.Context, addr string, opts ...DialOption) (*Client, error) {
	var cfg dialConfig
	for _, o := range opts {
		o(&cfg)
	}
	// The dialer reads the client's current target address, so a
	// not-primary redirect can move the connection without rebuilding the
	// client.
	var c *Client
	dialFn := func(ctx context.Context) (net.Conn, error) {
		if cfg.timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
			defer cancel()
		}
		target := addr
		if c != nil {
			if t, ok := c.target.Load().(string); ok && t != "" {
				target = t
			}
		}
		var d net.Dialer
		return d.DialContext(ctx, "tcp", target)
	}
	conn, err := dialFn(ctx)
	if err != nil {
		return nil, err
	}
	c = NewClient(conn, opts...)
	c.dialFn = dialFn
	c.target.Store(addr)
	return c, nil
}

// Close closes the connection; in-flight calls fail and no reconnection is
// attempted.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	conn := c.conn
	c.mu.Unlock()
	return conn.Close()
}

// BytesSent returns the total bytes uploaded (including framing and the
// version preamble).
func (c *Client) BytesSent() int64 { return c.sent.Load() }

// BytesReceived returns the total payload bytes downloaded.
func (c *Client) BytesReceived() int64 { return c.received.Load() }

// demux reads response frames from conn and routes each to its waiting
// caller by request ID. A read error is terminal for this connection
// generation: it fails every in-flight call and, absent a reconnect, every
// future one — as does an id-0 msgError, the one frame a server sends
// unprompted (it refused the preamble; see Server.ServeConn).
func (c *Client) demux(conn net.Conn, gen int) {
	for {
		id, typ, payload, err := readFrame(conn)
		if err != nil {
			c.failGen(err, gen)
			return
		}
		c.received.Add(int64(len(payload)) + frameOverhead)
		c.mu.Lock()
		if c.gen != gen {
			// The connection was replaced while this read was in flight;
			// the response belongs to a dead generation.
			c.mu.Unlock()
			return
		}
		ch := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		switch {
		case ch != nil:
			ch <- rpcResult{typ: typ, payload: payload} // buffered; never blocks
		case id == 0 && typ == msgError:
			c.failGen(decodeErrorPayload(payload), gen)
			return
		}
	}
}

// ErrConnectionLost marks calls that failed because the transport died
// underneath them — the server closed (or crashed) with the request in
// flight, or the connection broke before the response arrived. It wraps
// the underlying read error; match with errors.Is.
var ErrConnectionLost = errors.New("visualprint client: connection lost")

// errClientClosed is the reconnect refusal after Close.
var errClientClosed = fmt.Errorf("%w: client closed", ErrConnectionLost)

// failGen marks connection generation gen broken and unblocks every
// waiter. A stale generation (already replaced by a reconnect) is a no-op.
func (c *Client) failGen(err error, gen int) {
	// EOF and friends are transport deaths, not server answers; tag them
	// so callers can distinguish "server said no" from "server went away".
	// A refused preamble is an answer: redialing would be refused again.
	if err != nil && !errors.Is(err, ErrConnectionLost) && !errors.Is(err, ErrProtocolVersion) {
		err = fmt.Errorf("%w: %w", ErrConnectionLost, err)
	}
	c.mu.Lock()
	if gen != c.gen {
		c.mu.Unlock()
		return
	}
	c.readErr = err
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- rpcResult{err: err}
	}
	c.mu.Unlock()
}

// reconnect replaces a dead connection with a freshly dialed one. It is a
// no-op when the connection is healthy (another caller already
// reconnected) and an error when the client was closed or has no dialer.
func (c *Client) reconnect(ctx context.Context) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.mu.Lock()
	err, closed := c.readErr, c.closed
	c.mu.Unlock()
	switch {
	case closed:
		return errClientClosed
	case err == nil:
		return nil
	case c.dialFn == nil:
		return err
	}
	if err := c.swapConn(ctx, ErrConnectionLost); err != nil {
		return err
	}
	obs.Warnf("visualprint client: reconnected")
	return nil
}

// swapConn dials the current target, announces the protocol version and
// swaps the new connection in under a new generation, so late frames from
// the old one are discarded. Calls still pending on the old connection fail
// with lost: its demux loop's eventual read error targets a stale
// generation and would otherwise leave them hanging. The caller holds
// writeMu. On error the old connection stays in place.
func (c *Client) swapConn(ctx context.Context, lost error) error {
	conn, err := c.dialFn(ctx)
	if err != nil {
		return fmt.Errorf("%w: redial: %w", ErrConnectionLost, err)
	}
	if err := writePreamble(conn); err != nil {
		conn.Close()
		return fmt.Errorf("%w: redial: %w", ErrConnectionLost, err)
	}
	c.sent.Add(preambleSize)

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return errClientClosed
	}
	old := c.conn
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- rpcResult{err: lost}
	}
	c.conn = conn
	c.gen++
	gen := c.gen
	c.readErr = nil
	c.mu.Unlock()
	old.Close()
	go c.demux(conn, gen)
	return nil
}

// retryable reports whether err is safe to retry. Shed requests always are
// (the server did no work); a lost connection only for idempotent requests
// on a client that can redial. Typed request outcomes — no consensus, a
// deadline, a draining server — are answers, not transient faults.
func (c *Client) retryable(err error, idempotent bool) bool {
	switch {
	case errors.Is(err, ErrOverloaded):
		return true
	case errors.Is(err, ErrConnectionLost):
		return idempotent && c.dialFn != nil
	}
	return false
}

// invoke is the one request path: call with the retry loop — jittered
// exponential backoff on retryable errors, reconnecting first when the
// transport died. An idempotent request is also resent after a lost
// connection; any other one only when the server shed it (it did no work).
func (c *Client) invoke(ctx context.Context, idempotent bool, h reqHeader, typ byte, payload []byte) (byte, []byte, error) {
	rt, resp, err := c.callRedirect(ctx, h, typ, payload)
	for attempt := 1; err != nil && attempt < c.retry.MaxAttempts && c.retryable(err, idempotent); attempt++ {
		select {
		case <-time.After(c.retry.delay(attempt)):
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		}
		if errors.Is(err, ErrConnectionLost) {
			if rerr := c.reconnect(ctx); rerr != nil {
				return 0, nil, rerr
			}
		}
		rt, resp, err = c.callRedirect(ctx, h, typ, payload)
	}
	return rt, resp, err
}

// roundTrip is invoke for requests with exactly one success response type.
func (c *Client) roundTrip(ctx context.Context, idempotent bool, h reqHeader, typ byte, payload []byte, wantType byte) ([]byte, error) {
	rt, resp, err := c.invoke(ctx, idempotent, h, typ, payload)
	if err != nil {
		return nil, err
	}
	if rt != wantType {
		return nil, errRemote{msg: "unexpected response type"}
	}
	return resp, nil
}

// maxRedirectHops bounds not-primary redirect chasing within one call, so
// a fleet mid-failover (everyone pointing at everyone) cannot loop the
// client forever.
const maxRedirectHops = 4

// callRedirect is call plus redirect-following: a not-primary rejection
// naming a primary moves the connection there and resends. Safe for
// non-idempotent requests — the rejecting server did no work. Redirects
// don't consume retry-policy attempts.
func (c *Client) callRedirect(ctx context.Context, h reqHeader, typ byte, payload []byte) (byte, []byte, error) {
	rt, resp, err := c.call(ctx, h, typ, payload)
	for hops := 0; hops < maxRedirectHops; hops++ {
		var npe *NotPrimaryError
		if err == nil || !errors.As(err, &npe) || npe.Primary == "" || !c.retarget(ctx, npe.Primary) {
			return rt, resp, err
		}
		obs.Warnf("visualprint client: redirected to primary %s", npe.Primary)
		rt, resp, err = c.call(ctx, h, typ, payload)
	}
	return rt, resp, err
}

// retarget points the dialer at addr and swaps in a fresh connection,
// reporting whether it did. In-flight requests on the old connection fail
// with ErrConnectionLost (retryable where idempotent). No-op — returns
// false — when the client has no dialer or already targets addr. A failed
// dial leaves the old connection in place; the caller's error stands and a
// later attempt redials at the stored target.
func (c *Client) retarget(ctx context.Context, addr string) bool {
	if c.dialFn == nil {
		return false
	}
	cur, ok := c.target.Load().(string)
	if !ok || cur == addr {
		return false
	}
	c.target.Store(addr)

	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return c.swapConn(ctx, fmt.Errorf("%w: redirected to %s", ErrConnectionLost, addr)) == nil
}

// deadlineMillis converts a context deadline to the wire's relative-millis
// encoding: at least 1 (an already-tight deadline should expire on the
// server, typed), clamped to the field width.
func deadlineMillis(d time.Time) uint32 {
	ms := time.Until(d).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	if ms > int64(deadlineWireMax) {
		ms = int64(deadlineWireMax)
	}
	return uint32(ms)
}

// send registers a waiter under a fresh request ID and writes the request
// frame, header included. The context deadline bounds only the blocking
// write here.
func (c *Client) send(ctx context.Context, h reqHeader, typ byte, payload []byte) (uint32, chan rpcResult, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	if h.venue != "" && !validVenueName(h.venue) {
		return 0, nil, fmt.Errorf("visualprint client: invalid venue name %q", h.venue)
	}
	ch := make(chan rpcResult, 1)
	c.writeMu.Lock()
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		c.writeMu.Unlock()
		return 0, nil, err
	}
	conn := c.conn
	c.lastID++
	id := c.lastID
	c.pending[id] = ch
	c.mu.Unlock()
	if d, ok := ctx.Deadline(); ok {
		conn.SetWriteDeadline(d)
	} else {
		conn.SetWriteDeadline(time.Time{})
	}
	n, err := writeFrame(conn, id, typ, h, payload)
	c.sent.Add(int64(n))
	c.writeMu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		// A failed write is a dead transport — unless the context expired
		// mid-write (the write deadline mirrors it), which is an answer.
		if cerr := ctx.Err(); cerr != nil {
			return 0, nil, cerr
		}
		return 0, nil, fmt.Errorf("%w: %w", ErrConnectionLost, err)
	}
	return id, ch, nil
}

// call performs one wire round trip: send the request — a context deadline
// rides the header so the server enforces it too — and await the demuxed
// response (msgError is converted to error). The read side of the deadline
// is the ctx.Done select: the demux read is shared across requests and
// cannot carry a per-request deadline.
func (c *Client) call(ctx context.Context, h reqHeader, typ byte, payload []byte) (byte, []byte, error) {
	if d, ok := ctx.Deadline(); ok {
		h.deadline = deadlineMillis(d)
	}
	id, ch, err := c.send(ctx, h, typ, payload)
	if err != nil {
		return 0, nil, err
	}
	select {
	case r := <-ch:
		if r.err != nil {
			return 0, nil, r.err
		}
		if r.typ == msgError {
			return 0, nil, decodeErrorPayload(r.payload)
		}
		return r.typ, r.payload, nil
	case <-ctx.Done():
		// Drop the route (a late response is discarded by the demux loop)
		// and tell the server to stop working on the request.
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		c.sendCancel(id)
		return 0, nil, ctx.Err()
	}
}

// sendCancel tells the server to stop working on request id. Best-effort
// and fire-and-forget: the server never answers a cancel.
func (c *Client) sendCancel(id uint32) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.mu.Lock()
	conn := c.conn
	dead := c.readErr != nil
	c.mu.Unlock()
	if dead {
		return
	}
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	n, _ := writeFrame(conn, id, msgCancel, reqHeader{}, nil)
	c.sent.Add(int64(n))
}

// Session is a continuous localization session: a stream of queries from
// one moving device, identified to the server by a random non-zero 64-bit
// ID so it can warm-start each pose solve from the previous fixes. The
// handle is a cheap value sharing the client's connection; sessions are
// independent, so one client may run many concurrently.
//
// Sessions are soft state. The server evicts them by TTL and capacity, and
// a failover or restart loses them silently — in every case the query is
// answered by the ordinary cold solve, bit-identical to a session-less request, and the stream
// continues. There is no teardown RPC: stop querying and the server's TTL
// sweep reclaims the slot.
type Session struct {
	c  *Client
	id uint64
}

// Session returns a session handle against the client's venue (its
// WithVenue pin, or the default venue).
func (c *Client) Session() Session {
	return Session{c: c, id: newSessionID()}
}

// ID returns the session's wire identifier. Never zero: zero is the wire
// encoding for "no session".
func (s Session) ID() uint64 { return s.id }

// Query localizes one frame within the session. Identical to
// Client.Query except the request carries the session ID, so the server
// may answer from a warm-started solve seeded by the session's motion
// model. Results that fail the server's residual acceptance gate are
// transparently re-solved cold server-side, so a session query is never
// less accurate than a cold one.
func (s Session) Query(ctx context.Context, kps []sift.Keypoint, intr pose.Intrinsics) (LocateResult, error) {
	return s.c.query(ctx, s.id, kps, intr)
}

// newSessionID draws a random non-zero session identifier. Collisions
// across 64 bits are negligible at any realistic concurrent-session
// count, and a collision only merges two motion histories — the residual
// gate rejects the resulting nonsense prior and the solves fall back cold.
func newSessionID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// Ingest uploads wardriven keypoint-to-3D mappings into the client's venue,
// creating a named venue on first upload; it returns the venue's total
// mapping count after the batch. Ingest is not idempotent (a batch applied
// twice doubles its mappings), so the retry policy applies only to shed
// requests — never to a connection lost with the batch in flight.
func (c *Client) Ingest(ctx context.Context, ms []Mapping) (total int, err error) {
	resp, err := c.roundTrip(ctx, false, reqHeader{venue: c.venue}, msgIngest, encodeMappings(ms), msgIngestAck)
	if err != nil {
		return 0, err
	}
	if len(resp) != 8 {
		return 0, errRemote{msg: "bad ingest ack"}
	}
	return int(binary.LittleEndian.Uint64(resp)), nil
}

// Query uploads selected keypoints (with their 2D pixel coordinates) and
// returns the 3D localization against the client's venue. A venue that has
// never been ingested answers ErrEmptyDatabase.
func (c *Client) Query(ctx context.Context, kps []sift.Keypoint, intr pose.Intrinsics) (LocateResult, error) {
	return c.query(ctx, 0, kps, intr)
}

// query is Query plus the optional session ID (0 = none), which lets the
// server warm-start the solve; the answer is equally correct without it.
func (c *Client) query(ctx context.Context, sid uint64, kps []sift.Keypoint, intr pose.Intrinsics) (LocateResult, error) {
	payload := encodeQuery(intr, codec.MarshalKeypoints(kps))
	resp, err := c.roundTrip(ctx, true, reqHeader{venue: c.venue, sid: sid}, msgQuery, payload, msgQueryResult)
	if err != nil {
		return LocateResult{}, err
	}
	return decodeLocateResult(resp)
}

// Stats returns the mapping count of the client's venue: StatsFull's first
// field.
func (c *Client) Stats(ctx context.Context) (mappings uint64, err error) {
	s, err := c.StatsFull(ctx)
	return s.Mappings, err
}

// StatsFull returns the client's venue's state report, aggregated over its
// shards: database size, oracle insert count and persistence state
// (snapshot coverage, WAL size, last compaction) — of the node that
// answered.
func (c *Client) StatsFull(ctx context.Context) (DBStats, error) {
	resp, err := c.roundTrip(ctx, true, reqHeader{venue: c.venue}, msgStats, nil, msgStatsResult)
	if err != nil {
		return DBStats{}, err
	}
	s, err := decodeDBStats(resp)
	if err != nil {
		return DBStats{}, errRemote{msg: err.Error()}
	}
	return s, nil
}

// Metrics fetches the server's observability report: request counters,
// latency histograms with quantile summaries (locate and its pipeline
// stages, WAL fsync, snapshots), gauges, and the slow-request log. Remote
// failures (a draining server answers ErrShuttingDown) pass through as-is.
func (c *Client) Metrics(ctx context.Context) (obs.Report, error) {
	// Metrics are server-wide, never venue-scoped: always send bare.
	resp, err := c.roundTrip(ctx, true, reqHeader{}, msgGetMetrics, nil, msgMetricsResult)
	if err != nil {
		return obs.Report{}, err
	}
	var rep obs.Report
	if err := json.Unmarshal(resp, &rep); err != nil {
		return obs.Report{}, errRemote{msg: "bad metrics payload: " + err.Error()}
	}
	return rep, nil
}

// QueryUploadBytes returns the wire size of a query with the given
// number of keypoints — the per-query upload the paper reports as 51.2 KB
// for VisualPrint-ish fingerprints versus 523 KB whole frames.
func QueryUploadBytes(nKeypoints int) int64 {
	return frameOverhead + queryHeaderSize + 10 + int64(nKeypoints)*codec.KeypointWireSize
}
