package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"visualprint/internal/codec"
	"visualprint/internal/obs"
)

// Server accepts VisualPrint protocol connections and serves a Router.
//
// A connection announces its protocol version at open (see wire.go). Every
// request carries a uint32 ID and is dispatched on its own goroutine while
// a single writer goroutine serializes the responses, so one slow
// localization query does not stall the pipelined requests behind it.
//
// Every request is a first-class cancellable object: it runs under a
// context derived from its connection (severed connection → context
// canceled → the pipeline stops mid-solve), bounded by the wire deadline
// if the client sent one, and cancellable early by a msgCancel frame.
// Admission control bounds the work the server accepts: at most
// maxInFlight requests execute at once, at most maxQueue more wait, and
// anything beyond that is shed immediately with the typed ErrOverloaded —
// a saturated server answers in microseconds instead of queueing
// unboundedly. Shutdown drains gracefully: new work is refused with
// ErrShuttingDown while in-flight requests finish (or, past the drain
// deadline, are canceled).
type Server struct {
	// router is the engine: it resolves every request's venue (the empty
	// name is the default venue) and runs it on the venue's shards.
	router *Router
	ln     net.Listener

	// sem bounds concurrently executing request handlers across all
	// connections; nil means unbounded (direct ServeConn use, or
	// WithMaxInFlight(0)).
	sem         chan struct{}
	maxInFlight int
	// maxQueue bounds requests waiting for an execution slot; beyond it
	// admit sheds with ErrOverloaded. queued is the current waiter count.
	maxQueue int
	queued   atomic.Int64

	// baseCtx parents every request context; baseCancel fires on Close and
	// on a drain-deadline overrun, aborting in-flight pipelines. Nil on a
	// bare Server (direct ServeConn construction) — base() substitutes
	// context.Background().
	baseCtx    context.Context
	baseCancel context.CancelFunc

	drainTimeout time.Duration

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	closed   bool
	draining bool
	// nreq counts admitted in-flight requests; idle, when non-nil, is
	// closed by the request that brings nreq to zero (Shutdown's drain
	// barrier).
	nreq int
	idle chan struct{}
	wg   sync.WaitGroup
	// Log receives connection-level errors; Serve defaults it to the
	// process logger (obs.Default); nil silences.
	Log *obs.Logger

	// met is the wire-level instrument set Serve builds on the router's
	// registry.
	met *srvMetrics

	// rs, when non-nil, makes this server a fleet member: replication
	// RPCs are answered, ingests are gated to the primary role, and
	// replica-served reads honor the staleness bound (see repl.go).
	rs *ReplState
}

// Option configures a Server at construction (Serve / ListenAndServe).
type Option func(*Server)

// WithMaxInFlight bounds concurrently executing requests across all
// connections. n <= 0 removes the bound (and with it, admission control).
// Defaults to DefaultMaxInFlight.
func WithMaxInFlight(n int) Option {
	return func(s *Server) { s.maxInFlight = n }
}

// WithQueueDepth bounds requests waiting for an execution slot; arrivals
// past the bound are shed immediately with ErrOverloaded. 0 sheds as soon
// as every slot is busy. Defaults to DefaultQueueDepth of the in-flight
// bound. Only meaningful with a positive in-flight bound.
func WithQueueDepth(n int) Option {
	return func(s *Server) { s.maxQueue = n }
}

// WithReplState attaches a fleet control block: the server answers the
// replication RPCs, rejects ingests with a redirect unless it is the
// primary, and bounds replica-served reads by the configured staleness.
func WithReplState(rs *ReplState) Option {
	return func(s *Server) { s.rs = rs }
}

// WithDrainTimeout bounds how long Shutdown waits for in-flight requests
// when its context carries no deadline of its own; past it, in-flight work
// is canceled. 0 (the default) waits indefinitely.
func WithDrainTimeout(d time.Duration) Option {
	return func(s *Server) { s.drainTimeout = d }
}

// perCoreLocateQPS is the per-core Locate capacity the admission-control
// defaults below are derived from, instead of guessed multipliers: ~27 q/s
// at ~37 ms/op per core, measured 2026-08-09 on a 4k-mapping synthetic
// corpus. Re-derive it from benchmark/'s closed-loop poses_per_s
// (fingerprint_arrivals) when the defaults are next revisited.
const perCoreLocateQPS = 27

// defaultQueueWaitSeconds is the worst queueing delay the default queue
// depth is sized to admit: a request at the back of a full default queue
// waits at most about this long at the measured drain rate before
// execution (or sheds immediately past it).
const defaultQueueWaitSeconds = 10

// DefaultMaxInFlight returns the default bound on concurrently executing
// requests. Locate is CPU-bound and lock-free (see view.go), so one
// executing request per core saturates the machine; the 2x factor plus
// constant covers the remaining off-CPU gaps (WAL fsyncs on ingest,
// response write-backs) without letting a deep execution pool inflate
// per-request latency.
func DefaultMaxInFlight() int { return 2*runtime.GOMAXPROCS(0) + 2 }

// DefaultQueueDepth returns the default dispatch-queue bound for a given
// in-flight bound, sized from measured capacity: the queue admits what the
// machine can drain within defaultQueueWaitSeconds at perCoreLocateQPS per
// core, with a floor that keeps clients pipelining bursts over a single
// connection — never shed before admission control existed — unshed for
// any plausible burst. Latency-sensitive deployments should configure
// WithQueueDepth far lower.
func DefaultQueueDepth(maxInFlight int) int {
	const floor = 256
	capacity := runtime.GOMAXPROCS(0) * perCoreLocateQPS * defaultQueueWaitSeconds
	if capacity > floor {
		return capacity
	}
	return floor
}

// Serve starts accepting connections on ln. It returns immediately; Close
// stops the accept loop and all connections, Shutdown drains them
// gracefully first.
func Serve(ln net.Listener, router *Router, opts ...Option) *Server {
	s := &Server{
		router: router, ln: ln, conns: make(map[net.Conn]struct{}), Log: obs.Default(),
		maxInFlight: DefaultMaxInFlight(),
		maxQueue:    -1,
	}
	for _, o := range opts {
		o(s)
	}
	if s.maxInFlight > 0 {
		s.sem = make(chan struct{}, s.maxInFlight)
	}
	if s.maxQueue < 0 {
		s.maxQueue = DefaultQueueDepth(s.maxInFlight)
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	// Route the default venue's own warnings (persistence, resource budgets)
	// through the server's logger so one knob silences or redirects both —
	// unless the owner already chose a logger. The indirection through
	// s.logf keeps a later `s.Log = nil` effective for both.
	router.Default().setLoggerDefault(obs.FuncLogger(s.logf))
	router.SetLogger(s.Log)
	s.met = newSrvMetrics(router.Registry())
	if s.rs != nil {
		s.rs.SetLogger(s.Log)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Registry returns the router's metrics registry, which the metrics RPC
// reports.
func (s *Server) Registry() *obs.Registry { return s.router.Registry() }

// ListenAndServe listens on addr (TCP) and serves router.
func ListenAndServe(addr string, router *Router, opts ...Option) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Serve(ln, router, opts...), nil
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// base returns the context parenting request contexts; a bare Server
// (direct ServeConn construction) has none and falls back to Background.
func (s *Server) base() context.Context {
	if s.baseCtx != nil {
		return s.baseCtx
	}
	return context.Background()
}

// Close stops the server immediately: the listener and every open
// connection are closed and in-flight request contexts are canceled, so
// abandoned pipelines stop burning CPU. For a graceful stop that lets
// in-flight work finish, use Shutdown.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining = true
	if s.baseCancel != nil {
		s.baseCancel()
	}
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Shutdown drains the server gracefully: the listener closes, new requests
// are refused with the typed ErrShuttingDown, and in-flight requests run
// to completion — their responses are flushed before the connections
// close. If ctx expires first (or, when ctx has no deadline, the
// configured drain timeout does), the remaining in-flight requests are
// canceled; their context-aware pipelines unwind within one DE generation
// and answer ErrCanceled. Shutdown returns nil on a clean drain and
// ctx.Err() on a forced one; either way the server is fully stopped on
// return. Shutdown after Close (or a second Shutdown) is a no-op.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.drainTimeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.drainTimeout)
			defer cancel()
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining = true
	var lnErr error
	if s.ln != nil {
		lnErr = s.ln.Close()
	}
	var idle chan struct{}
	if s.nreq > 0 {
		idle = make(chan struct{})
		s.idle = idle
	}
	s.mu.Unlock()

	var forced error
	if idle != nil {
		select {
		case <-idle:
		case <-ctx.Done():
			// Drain deadline: cancel what's left. Context-checked stages
			// unwind promptly and endRequest closes idle.
			forced = ctx.Err()
			if s.baseCancel != nil {
				s.baseCancel()
			}
			<-idle
		}
	}
	// Every admitted request has completed and queued its response. Fail
	// the blocked read loops with a past read deadline — not Close — so
	// each connection's writer flushes pending responses before the
	// connection tears down on its own.
	s.mu.Lock()
	now := time.Now()
	for c := range s.conns {
		c.SetReadDeadline(now) //nolint:errcheck // best-effort unblock
	}
	s.mu.Unlock()
	if s.baseCancel != nil {
		s.baseCancel()
	}
	s.wg.Wait()
	if forced != nil {
		return forced
	}
	return lnErr
}

// beginRequest registers one admitted request against the drain barrier;
// it returns false once the server is draining (the caller answers
// ErrShuttingDown without dispatching).
func (s *Server) beginRequest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.nreq++
	return true
}

// endRequest retires an admitted request, releasing Shutdown's drain
// barrier when the last one finishes.
func (s *Server) endRequest() {
	s.mu.Lock()
	s.nreq--
	if s.nreq == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.ServeConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

func (s *Server) logf(format string, args ...any) {
	s.Log.Warnf(format, args...)
}

// admit applies admission control: it takes an execution slot, waits in
// the bounded dispatch queue when none is free, and sheds with the typed
// ErrOverloaded the moment the queue is full — a saturated server answers
// in microseconds instead of queueing unboundedly. Waiting is
// context-aware: a request whose deadline expires or whose connection dies
// while queued leaves without ever executing.
func (s *Server) admit(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return ctxError(err)
	}
	if s.sem == nil {
		return nil
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	n := s.queued.Add(1)
	s.met.queueDepth.Set(n)
	if n > int64(s.maxQueue) {
		s.unqueue()
		return ErrOverloaded
	}
	defer s.unqueue()
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctxError(ctx.Err())
	}
}

func (s *Server) unqueue() {
	s.met.queueDepth.Set(s.queued.Add(-1))
}

func (s *Server) release() {
	if s.sem != nil {
		<-s.sem
	}
}

// ServeConn handles one protocol connection until EOF or error. It is
// exported so tests and single-process deployments can drive the protocol
// over net.Pipe. The preamble is the whole handshake: a connection that does
// not open with the magic and this server's protocol version is refused
// with one id-0 ErrProtocolVersion frame, which the peer's demux reports as
// the reason every call on the connection failed.
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()
	var pre [preambleSize]byte
	if _, err := io.ReadFull(conn, pre[:4]); err != nil {
		return
	}
	var refusal error
	if binary.LittleEndian.Uint32(pre[:4]) != protoMagic {
		refusal = fmt.Errorf("%w: no preamble, want version %d", ErrProtocolVersion, protoVersion)
	} else if _, err := io.ReadFull(conn, pre[4:]); err != nil {
		return
	} else if pre[4] != protoVersion {
		refusal = fmt.Errorf("%w: got version %d, want %d", ErrProtocolVersion, pre[4], protoVersion)
	}
	if refusal != nil {
		writeFrame(conn, 0, msgError, reqHeader{}, encodeErrorPayload(refusal)) //nolint:errcheck // closing either way
		return
	}
	s.serve(conn)
}

// response is one response queued for the connection's writer goroutine.
type response struct {
	id      uint32
	typ     byte
	payload []byte
}

// reqCancels tracks one connection's in-flight requests by ID so a
// msgCancel frame can abort exactly the request it names.
type reqCancels struct {
	mu sync.Mutex
	m  map[uint32]context.CancelFunc
}

func (r *reqCancels) add(id uint32, c context.CancelFunc) {
	r.mu.Lock()
	r.m[id] = c
	r.mu.Unlock()
}

// cancel aborts the named request if it is still in flight.
func (r *reqCancels) cancel(id uint32) bool {
	r.mu.Lock()
	c := r.m[id]
	delete(r.m, id)
	r.mu.Unlock()
	if c != nil {
		c()
		return true
	}
	return false
}

// remove retires a finished request, releasing its context's timer.
func (r *reqCancels) remove(id uint32) {
	r.mu.Lock()
	c := r.m[id]
	delete(r.m, id)
	r.mu.Unlock()
	if c != nil {
		c()
	}
}

// serve is the multiplexed connection loop: requests are dispatched
// concurrently and responses are serialized through a single writer
// goroutine, tagged with the ID of the request they answer. Response order
// is therefore completion order, not request order.
//
// The read loop never blocks on admission — every request gets a goroutine
// immediately and admission control decides inside it — so cancel frames
// and new requests are seen promptly even when the server is saturated.
// Each request's context descends from the connection's: a dead connection
// cancels everything it had in flight. The request header is decoded here,
// once, so the request context carries the wire deadline and everything
// downstream — instrumentation included — sees the bare request.
func (s *Server) serve(conn net.Conn) {
	connCtx, cancelConn := context.WithCancel(s.base())
	defer cancelConn()
	out := make(chan response, 32)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		failed := false
		for r := range out {
			if failed {
				continue // drain so handlers never block on a dead writer
			}
			if _, err := writeFrame(conn, r.id, r.typ, reqHeader{}, r.payload); err != nil {
				s.logf("visualprint server: %v", err)
				failed = true
				conn.Close() // unblocks the read loop below
			}
		}
	}()
	inflight := &reqCancels{m: make(map[uint32]context.CancelFunc)}
	var handlers sync.WaitGroup
	for {
		id, typ, payload, err := readFrame(conn)
		if err != nil {
			break // EOF or broken connection
		}
		if typ == msgCancel {
			if inflight.cancel(id) {
				s.met.canceled.Inc()
			}
			continue // fire-and-forget: no response
		}
		var h reqHeader
		if typ&headerFlag != 0 {
			typ &^= headerFlag
			if h, payload, err = decodeReqHeader(payload); err != nil {
				s.met.headerRejected.Inc()
				out <- response{id: id, typ: msgError, payload: encodeErrorPayload(err)}
				continue
			}
		}
		var reqCtx context.Context
		var cancel context.CancelFunc
		if h.deadline > 0 {
			reqCtx, cancel = context.WithTimeout(connCtx, time.Duration(h.deadline)*time.Millisecond)
		} else {
			reqCtx, cancel = context.WithCancel(connCtx)
		}
		inflight.add(id, cancel)
		handlers.Add(1)
		go func(ctx context.Context, id uint32, typ byte, payload []byte) {
			defer handlers.Done()
			defer inflight.remove(id)
			// push delivers a server-initiated event frame tagged with this
			// request's ID (oracle subscriptions). Blocking on the bounded out
			// channel is the per-subscriber queue: a slow connection stalls
			// its own stream while newer epochs coalesce behind it. A dead
			// connection never wedges a handler — the writer drains out after
			// a write error and ctx is canceled when the read loop exits.
			push := func(t byte, p []byte) bool {
				select {
				case out <- response{id: id, typ: t, payload: p}:
					return true
				case <-ctx.Done():
					return false
				}
			}
			rt, resp := s.serveRequest(ctx, h, typ, payload, push)
			out <- response{id: id, typ: rt, payload: resp}
		}(reqCtx, id, typ, payload)
	}
	cancelConn() // the connection is gone: abort work queued on its behalf
	handlers.Wait()
	close(out)
	<-writerDone
}

// serveRequest runs one request end to end: drain gate, instrumentation,
// admission, dispatch. Framing, request IDs and the header belong to the
// caller; serveRequest never fails — request errors become msgError
// responses. push delivers server-initiated event frames for the streaming
// requests (oracle subscriptions); the returned pair is still the terminal
// response.
func (s *Server) serveRequest(ctx context.Context, h reqHeader, typ byte, payload []byte, push func(byte, []byte) bool) (byte, []byte) {
	if typ == msgSubscribeOracle {
		// Long-lived stream: it skips admission (it holds no execution slot
		// while parked on the epoch signal) and the drain barrier (Shutdown
		// would otherwise wait forever on it; instead it ends when the
		// connection contexts cancel).
		return s.serveSubscription(ctx, h.venue, payload, push)
	}
	if !s.beginRequest() {
		rt, resp := errorResponse(ErrShuttingDown)
		s.met.record(typ, time.Now(), rt, resp)
		return rt, resp
	}
	defer s.endRequest()
	return s.handle(ctx, h, typ, payload)
}

// serveSubscription runs one oracle subscription stream until the request
// context cancels (msgCancel, connection loss, server close/shutdown). It
// pushes the current version as msgOracleEpoch immediately — the
// subscription ack a client can wait on — then one event per epoch bump,
// re-reading the latest version after each wakeup so bursts coalesce into
// a single event carrying the newest epoch. The return value is the
// stream's terminal response.
func (s *Server) serveSubscription(ctx context.Context, venue string, payload []byte, push func(byte, []byte) bool) (byte, []byte) {
	if len(payload) != 8 {
		return errorResponse(errors.New("bad subscribe request"))
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return errorResponse(ErrShuttingDown)
	}
	s.met.subscribers.Add(1)
	defer s.met.subscribers.Add(-1)
	last := uint64(0)
	first := true
	for {
		epoch, inserts, ch := s.router.VenueEpochSignal(venue, ctx.Done())
		// The channel was read alongside the version, so a bump past `epoch`
		// closes exactly `ch` — sleeping below can never miss it.
		if first || epoch != last {
			if !push(msgOracleEpoch, encodeOracleVersion(epoch, inserts)) {
				return errorResponse(ctxError(ctx.Err()))
			}
			s.met.epochPushes.Inc()
			last, first = epoch, false
		}
		select {
		case <-ctx.Done():
			return errorResponse(ctxError(ctx.Err()))
		case <-ch:
		}
	}
}

// handle wraps dispatch with the wire-level instrumentation: request
// counts and latency per message type, payload bytes in each direction,
// the in-flight gauge and error-code counters.
func (s *Server) handle(ctx context.Context, h reqHeader, typ byte, payload []byte) (byte, []byte) {
	m := s.met
	m.inflight.Add(1)
	m.bytesIn.Add(uint64(len(payload)))
	start := time.Now()
	rt, resp := s.admitAndDispatch(ctx, h, typ, payload)
	m.record(typ, start, rt, resp)
	m.inflight.Add(-1)
	return rt, resp
}

// admitAndDispatch applies admission control, then routes the request.
func (s *Server) admitAndDispatch(ctx context.Context, h reqHeader, typ byte, payload []byte) (byte, []byte) {
	if err := s.admit(ctx); err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.met.shed.Inc()
		}
		return errorResponse(err)
	}
	defer s.release()
	return s.dispatch(ctx, h.venue, h.sid, typ, payload)
}

// dispatch routes one request to its venue's engine(s) through the router.
func (s *Server) dispatch(ctx context.Context, venue string, sid uint64, typ byte, payload []byte) (byte, []byte) {
	switch typ {
	case msgReplState, msgReplSnapshot, msgReplFetch, msgReplFollow, msgReplPromote:
		if s.rs == nil {
			return errorResponse(errors.New("replication not enabled on this server"))
		}
		switch typ {
		case msgReplState:
			return s.rs.handleState()
		case msgReplSnapshot:
			return s.rs.handleSnapshot()
		case msgReplFetch:
			return s.rs.handleFetch(ctx, payload)
		case msgReplFollow:
			return s.rs.handleFollow(payload)
		default:
			return s.rs.handlePromote(payload)
		}
	case msgIngest:
		// A fleet member only accepts writes as the primary — any venue.
		if err := s.rs.gateWrite(); err != nil {
			return errorResponse(err)
		}
		ms, err := decodeMappings(payload)
		if err != nil {
			return errorResponse(err)
		}
		total, err := s.router.Ingest(ctx, venue, ms)
		if err != nil {
			return errorResponse(err)
		}
		ack := make([]byte, 8)
		binary.LittleEndian.PutUint64(ack, uint64(total))
		return msgIngestAck, ack
	case msgQuery:
		// Replica-served reads carry a staleness bound; past it (or mid
		// full-sync) the client is redirected to the primary.
		if err := s.rs.gateRead(); err != nil {
			return errorResponse(err)
		}
		intr, kpData, err := decodeQueryHeader(payload)
		if err != nil {
			return errorResponse(err)
		}
		kps, err := codec.UnmarshalKeypoints(kpData)
		if err != nil {
			return errorResponse(err)
		}
		res, err := s.router.LocateSession(ctx, venue, sid, kps, intr)
		if err != nil {
			return errorResponse(err)
		}
		return msgQueryResult, encodeLocateResult(res)
	case msgOracleSync:
		haveEpoch, haveInserts, err := decodeOracleVersion(payload)
		if err != nil {
			return errorResponse(err)
		}
		res, err := s.router.OracleSyncSince(venue, haveEpoch, haveInserts)
		if err != nil {
			return errorResponse(err)
		}
		m := s.met
		switch {
		case res.Unchanged:
			m.syncUnchanged.Inc()
			return msgOracleSyncNone, encodeOracleVersion(res.Epoch, res.Inserts)
		case res.Delta != nil:
			m.syncDelta.Inc()
			m.syncBytes.Add(uint64(len(res.Delta)))
			return msgOracleSyncDelta, res.Delta
		default:
			m.syncFull.Inc()
			m.syncBytes.Add(uint64(len(res.Blob)))
			return msgOracleSyncFull, encodeOracleSyncFull(res.Epoch, res.Blob)
		}
	case msgStats:
		return msgStatsResult, encodeDBStats(s.router.Stats(venue))
	case msgGetMetrics:
		blob, err := json.Marshal(s.router.Registry().Report())
		if err != nil {
			return errorResponse(err)
		}
		return msgMetricsResult, blob
	default:
		return errorResponse(fmt.Errorf("unknown message type %d", typ))
	}
}

func errorResponse(err error) (byte, []byte) {
	return msgError, encodeErrorPayload(err)
}
