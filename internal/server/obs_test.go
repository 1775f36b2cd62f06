package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"visualprint/internal/mathx"
	"visualprint/internal/pose"
	"visualprint/internal/sift"
	"visualprint/internal/testutil"
)

// TestMain sweeps for leaked server/store/client goroutines after the full
// suite: a dispatch loop, demux loop, WAL committer or snapshotter still
// running once every test (and its Close cleanups) finished is a bug.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if err := testutil.VerifyNone(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// TestMetricsRPCEndToEnd drives a loaded server and requires the metrics
// report to reflect the traffic: request counters per type, error-code
// counters, the mappings gauge, and latency histograms for the locate
// pipeline.
func TestMetricsRPCEndToEnd(t *testing.T) {
	testutil.CheckGoroutines(t)
	s, _ := startServer(t)
	c := dialClient(t, s)
	ctx := context.Background()

	// One query against the empty database: a counted request AND a typed
	// error, attributed to its wire code.
	kps := make([]sift.Keypoint, 3)
	_, err := c.Query(ctx, kps, pose.Intrinsics{W: 100, H: 100, FovX: 1, FovY: 1})
	if !errors.Is(err, ErrEmptyDatabase) {
		t.Fatalf("query on empty db: %v", err)
	}

	ms := make([]Mapping, 10)
	for i := range ms {
		ms[i].Desc[0] = byte(i)
		ms[i].Pos = mathx.Vec3{X: float64(i)}
	}
	if _, err := c.Ingest(ctx, ms); err != nil {
		t.Fatal(err)
	}

	rep, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantCounters := map[string]uint64{
		"requests_query":        1,
		"requests_ingest":       1,
		"errors_empty_database": 1,
		"locates":               1,
		"locate_errors":         1,
		"ingests":               1,
	}
	for name, want := range wantCounters {
		if got := rep.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	if rep.Counters["bytes_in"] == 0 || rep.Counters["bytes_out"] == 0 {
		t.Error("byte counters not advancing")
	}
	if got := rep.Gauges["mappings"]; got != 10 {
		t.Errorf("mappings gauge = %d, want 10", got)
	}
	for _, h := range []string{"locate_ns", "ingest_ns", "request_query_ns", "request_ingest_ns"} {
		hs, ok := rep.Histograms[h]
		if !ok || hs.Count == 0 {
			t.Errorf("histogram %s missing or empty: %+v", h, hs)
			continue
		}
		if hs.P99 < hs.P50 || hs.Max <= 0 {
			t.Errorf("histogram %s quantiles inconsistent: %+v", h, hs)
		}
	}
	if rep.UptimeSeconds < 0 {
		t.Errorf("uptime %f", rep.UptimeSeconds)
	}

	// The metrics request itself is booked after its dispatch returns, so
	// it shows up from the second call on.
	rep2, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Counters["requests_metrics"] == 0 {
		t.Error("metrics requests not counted")
	}
}

// TestMetricsFeedsStageHistograms requires a real (non-trivially-failing)
// query to leave per-stage timings behind.
func TestMetricsFeedsStageHistograms(t *testing.T) {
	testutil.CheckGoroutines(t)
	s, _ := startServer(t)
	c := dialClient(t, s)
	ctx := context.Background()

	ms := make([]Mapping, 64)
	for i := range ms {
		for j := range ms[i].Desc {
			ms[i].Desc[j] = byte((i*31 + j*7) % 256)
		}
		ms[i].Pos = mathx.Vec3{X: float64(i % 8), Y: float64(i / 8)}
	}
	if _, err := c.Ingest(ctx, ms); err != nil {
		t.Fatal(err)
	}
	// Query with descriptors present in the database so LSH retrieval runs
	// (the query may still fail clustering — stage timing is the point).
	kps := make([]sift.Keypoint, 8)
	for i := range kps {
		kps[i].Desc = ms[i].Desc
		kps[i].X, kps[i].Y = float64(10*i), float64(5*i)
	}
	_, _ = c.Query(ctx, kps, pose.Intrinsics{W: 100, H: 100, FovX: 1, FovY: 1})

	rep, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hs := rep.Histograms["stage_lsh_query_ns"]; hs.Count == 0 {
		t.Errorf("lsh_query stage not timed: %+v", rep.Histograms)
	}
}

// TestMetricsDisabledServerReportsUnsupported covers the one unavailable
// case: a server constructed without Serve (no registry).
func TestMetricsDisabledServerReportsUnsupported(t *testing.T) {
	testutil.CheckGoroutines(t)
	db, err := NewDatabase(DefaultDatabaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{router: routerFor(t, db)}
	cliConn, srvConn := net.Pipe()
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(srvConn) }()
	c := NewClient(cliConn)
	defer func() { c.Close(); <-done }()
	if _, err := c.Metrics(context.Background()); !errors.Is(err, ErrMetricsUnsupported) {
		t.Fatalf("want ErrMetricsUnsupported, got %v", err)
	}
}

// TestServerCloseMidRequestFailsTyped kills the transport with a request
// in flight: the call must fail promptly with ErrConnectionLost (not hang,
// not return a garbled response), later calls must fail the same way, and
// the demux goroutine must exit.
func TestServerCloseMidRequestFailsTyped(t *testing.T) {
	testutil.CheckGoroutines(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		var pre [preambleSize]byte
		io.ReadFull(conn, pre[:])
		readFrame(conn) // swallow the request, answer nothing
		conn.Close()    // ... and die with it in flight
		accepted <- conn
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	_, err = c.Stats(ctx)
	if !errors.Is(err, ErrConnectionLost) {
		t.Fatalf("want ErrConnectionLost, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("failure took %v; want prompt", elapsed)
	}
	<-accepted
	// The broken transport is sticky and still typed.
	if _, err := c.Stats(context.Background()); !errors.Is(err, ErrConnectionLost) {
		t.Fatalf("second call: %v", err)
	}
}

// TestDialDeadServerFailsPromptly: a client whose transport died before
// the preamble behaves like one that lost it later — typed error, no
// demux goroutine left behind.
func TestDialDeadServerFailsPromptly(t *testing.T) {
	testutil.CheckGoroutines(t)
	cliConn, srvConn := net.Pipe()
	srvConn.Close()
	cliConn.Close() // preamble write fails immediately
	c := NewClient(cliConn)
	if _, err := c.Stats(context.Background()); !errors.Is(err, ErrConnectionLost) {
		t.Fatalf("want ErrConnectionLost, got %v", err)
	}

	// And an address nobody listens on fails at Dial with no client (and
	// no goroutine) created at all.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := Dial(addr); err == nil {
		t.Fatal("Dial to dead address succeeded")
	}
}
