package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	vp "visualprint"
)

// rpcTimeout bounds every request the benchmark sends; one that takes
// longer is a failure, not a sample.
const rpcTimeout = 5 * time.Second

func rpcCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), rpcTimeout)
}

// system is a live server on loopback TCP with its map loaded, the
// connections the load is sent over, and the client's synced oracle.
type system struct {
	srv     *vp.Server
	clients []*vp.Client // never more than nproc
	osync   *vp.OracleSync
	oracle  *vp.Oracle
	base    uint64 // mappings held after set-up

	ingestAckMs   []float64 // per bulk batch
	ingestPerS    float64
	oracleFetchMs float64
	fullBlobBytes int64
}

func (s *system) close() {
	for _, c := range s.clients {
		c.Close()
	}
	s.srv.Close()
}

// setUp brings the system from nothing to ready for the first timed
// request: start the server, connect, bulk-ingest the map over TCP, sync
// the oracle and select every view's fingerprint with it. This is the span
// setup_s times; work a later change moves out of the request path and
// into ingest, oracle construction or oracle decode lands here.
func setUp(in *inputs) (*system, error) {
	cfg := vp.DefaultServerConfig()
	// The default 150 ms wall-clock cap on the pose solve would let the
	// scheduler decide an answer; without it every answer is a function of
	// the request alone and can be checked bit for bit.
	cfg.Pose.Deadline = 0
	srv, err := vp.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	s := &system{srv: srv}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		c, err := vp.Connect(addr.String())
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	if err := s.load(in); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *system) load(in *inputs) error {
	c := s.clients[0]
	t0 := time.Now()
	n := 0
	for _, b := range in.batches {
		tb := time.Now()
		ctx, cancel := rpcCtx()
		total, err := c.Ingest(ctx, b)
		cancel()
		if err != nil {
			return fmt.Errorf("bulk ingest: %w", err)
		}
		s.ingestAckMs = append(s.ingestAckMs, ms(time.Since(tb)))
		s.base = uint64(total)
		n += len(b)
	}
	s.ingestPerS = float64(n) / time.Since(t0).Seconds()

	s.osync = c.OracleSync()
	t0 = time.Now()
	ctx, cancel := rpcCtx()
	defer cancel()
	o, err := s.osync.Sync(ctx)
	if err != nil {
		return fmt.Errorf("oracle sync: %w", err)
	}
	s.oracleFetchMs = ms(time.Since(t0))
	s.fullBlobBytes = s.osync.TransferBytes()
	s.oracle = o
	for i := range in.views {
		v := &in.views[i]
		if v.fp, err = o.SelectUnique(v.kps, selectCount); err != nil {
			return fmt.Errorf("select: %w", err)
		}
		if v.wire, err = vp.UnmarshalKeypoints(vp.MarshalKeypoints(v.fp)); err != nil {
			return fmt.Errorf("keypoint codec: %w", err)
		}
	}
	// First call switches the server's instruments on; do it here so the
	// timed phase runs with them on in traced and untraced runs alike.
	s.srv.Metrics()
	return nil
}

// sameAnswer reports whether two answers are the same bits. Generations is
// not carried on the wire and is left out.
func sameAnswer(a, b vp.LocateResult) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return eq(a.Position.X, b.Position.X) && eq(a.Position.Y, b.Position.Y) && eq(a.Position.Z, b.Position.Z) &&
		eq(a.Yaw, b.Yaw) && eq(a.Residual, b.Residual) && a.Matched == b.Matched
}

// reference answers every view's fingerprint twice on an otherwise idle
// system, once with an in-process Locate of what the wire delivers and once
// over the wire, back to back and in alternating order. The in-process
// answers are what every later answer is compared with; the paired
// difference of the two timings is wire and dispatch, measured rather than
// read off two medians taken at different times.
type reference struct {
	answers    []vp.LocateResult
	directMs   []float64
	overheadMs []float64 // wire minus in-process, per view
	mismatches int       // wire answers that differ from in-process
	allocs     float64   // per in-process call
	bytes      float64   // per in-process call
}

func (s *system) reference(in *inputs) (*reference, error) {
	r := &reference{answers: make([]vp.LocateResult, len(in.views))}
	var m0, m1 runtime.MemStats
	var mallocs, alloc uint64
	c := s.clients[0]
	for i, v := range in.views {
		var direct, wire vp.LocateResult
		var directD, wireD time.Duration
		var derr, werr error
		locate := func() {
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			direct, derr = s.srv.Locate(context.Background(), "", v.wire, v.intr)
			directD = time.Since(t0)
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			alloc += m1.TotalAlloc - m0.TotalAlloc
		}
		query := func() {
			ctx, cancel := rpcCtx()
			defer cancel()
			t0 := time.Now()
			wire, werr = c.Query(ctx, v.fp, v.intr)
			wireD = time.Since(t0)
		}
		if i%2 == 0 {
			locate()
			query()
		} else {
			query()
			locate()
		}
		if derr != nil {
			return nil, fmt.Errorf("in-process locate of view %d: %w", i, derr)
		}
		if werr != nil || !sameAnswer(wire, direct) {
			r.mismatches++
		}
		r.answers[i] = direct
		r.directMs = append(r.directMs, ms(directD))
		r.overheadMs = append(r.overheadMs, ms(wireD-directD))
	}
	n := float64(len(in.views))
	r.allocs, r.bytes = float64(mallocs)/n, float64(alloc)/n
	return r, nil
}

// serverDelta is the part of the server's own report (Server.Metrics) a
// phase added. Attribution only: these are the program's counts of its own
// work, never the basis of a claim.
type serverDelta struct {
	before, after vp.MetricsReport
}

func (d serverDelta) counter(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

// histMean is the mean of the values a histogram took in during the phase.
func (d serverDelta) histMean(name string) float64 {
	a, b := d.after.Histograms[name], d.before.Histograms[name]
	if a.Count == b.Count {
		return 0
	}
	return float64(a.Sum-b.Sum) / float64(a.Count-b.Count)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
