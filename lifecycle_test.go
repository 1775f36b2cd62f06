package visualprint

import (
	"context"
	"errors"
	"slices"
	"sort"
	"testing"
	"time"
)

// testMappings builds a small deterministic batch for ingest tests.
func testMappings(n int, tag byte) []Mapping {
	ms := make([]Mapping, n)
	for i := range ms {
		ms[i].Desc[0] = tag
		ms[i].Desc[1] = byte(i)
		ms[i].Pos = Vec3{X: float64(i), Y: 1, Z: float64(int(tag))}
	}
	return ms
}

// TestShutdownFlushesWAL exercises the public graceful-stop contract: a
// server built with options, fed over the network by an options-built
// client, then drained with Shutdown — after which a fresh server opening
// the same data directory must recover every acknowledged mapping.
func TestShutdownFlushesWAL(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(DefaultServerConfig(),
		WithQueueDepth(64),
		WithDrainTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.OpenData(dir); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	c, err := Connect(addr.String(),
		WithDialTimeout(5*time.Second),
		WithRetryPolicy(DefaultRetryPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	const n = 25
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	total, err := c.Ingest(ctx, testMappings(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	if total != n {
		t.Fatalf("ingest ack %d, want %d", total, n)
	}
	c.Close()

	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// A request after Shutdown must fail: the listener is gone.
	if _, err := Connect(addr.String(), WithDialTimeout(time.Second)); err == nil {
		t.Fatal("Connect succeeded against a shut-down server")
	}

	reopened, err := NewServer(DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := reopened.OpenData(dir); err != nil {
		t.Fatalf("reopen after Shutdown: %v", err)
	}
	defer reopened.Close()
	if got := int(reopened.Stats("").Mappings); got != n {
		t.Fatalf("recovered %d mappings after Shutdown, want %d", got, n)
	}
}

// TestLifecycleSentinelsExported: the request-lifecycle sentinels are part
// of the public API and keep their stdlib identities.
func TestLifecycleSentinelsExported(t *testing.T) {
	if !errors.Is(ErrDeadlineExceeded, context.DeadlineExceeded) {
		t.Error("ErrDeadlineExceeded does not match context.DeadlineExceeded")
	}
	if !errors.Is(ErrCanceled, context.Canceled) {
		t.Error("ErrCanceled does not match context.Canceled")
	}
	for _, e := range []error{ErrOverloaded, ErrShuttingDown} {
		if e == nil {
			t.Error("nil lifecycle sentinel")
		}
	}
}

// TestLocalizeContextCancel: the public context-first entry point stops a
// localization mid-pipeline.
func TestLocalizeContextCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is slow")
	}
	w := smallWorld()
	p, err := NewPipeline(w, DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wardrive(fastWardrive(), false); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pois := w.POIsOfKind(POIUnique)
	cam := CameraFacing(w, pois[0], 3.0, 0.2, 0, 180, 135)
	_, _, lerr := p.Localize(ctx, cam)
	if !errors.Is(lerr, ErrCanceled) || !errors.Is(lerr, context.Canceled) {
		t.Fatalf("got %v, want ErrCanceled matching context.Canceled", lerr)
	}
}

// TestEveryVenueIsInstrumented: a Locate and an Ingest record into the same
// server-wide instruments whichever venue and topology serves them — a named
// one-shard venue like the default one — and a scatter-gather Locate counts
// once, not once per shard.
func TestEveryVenueIsInstrumented(t *testing.T) {
	srv, err := NewServer(DefaultServerConfig(), WithVenueShards("wide", 4))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	kps := make([]Keypoint, 8)
	for i := range kps {
		kps[i].Desc[0], kps[i].Desc[1] = 7, byte(i)
	}
	before := srv.Metrics()
	for i, venue := range []string{"narrow", "wide"} {
		if _, err := srv.Ingest(ctx, venue, testMappings(40, 7)); err != nil {
			t.Fatal(err)
		}
		// The query may fail clustering; reaching the LSH stage is the point.
		srv.Locate(ctx, venue, kps, Intrinsics{W: 100, H: 100, FovX: 1, FovY: 1}) //nolint:errcheck
		rep := srv.Metrics()
		n := uint64(i + 1)
		if got := rep.Counters["locates"] - before.Counters["locates"]; got != n {
			t.Errorf("after %q: locates advanced by %d, want %d", venue, got, n)
		}
		if got := rep.Counters["ingests"] - before.Counters["ingests"]; got != n {
			t.Errorf("after %q: ingests advanced by %d, want %d", venue, got, n)
		}
		if got := rep.Histograms["stage_lsh_query_ns"].Count - before.Histograms["stage_lsh_query_ns"].Count; got != n {
			t.Errorf("after %q: stage_lsh_query_ns has %d observations, want %d", venue, got, n)
		}
	}
}

// metricNames flattens a report to its instrument names, by kind.
func metricNames(rep MetricsReport) []string {
	var names []string
	for n := range rep.Counters {
		names = append(names, "counter "+n)
	}
	for n := range rep.Gauges {
		names = append(names, "gauge "+n)
	}
	for n := range rep.Histograms {
		names = append(names, "histogram "+n)
	}
	sort.Strings(names)
	return names
}

// TestMetricNamesFixedAtConstruction: every instrument exists from NewServer
// on. An in-process report taken before any listener names exactly the
// instruments a networked client reads after ingest, query, session and
// oracle-sync traffic on the default venue.
func TestMetricNamesFixedAtConstruction(t *testing.T) {
	srv, err := NewServer(DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	want := metricNames(srv.Metrics())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Connect(addr.String(), WithClientLogger(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	ms := randomMappings(9, 200)
	if _, err := c.Ingest(ctx, ms); err != nil {
		t.Fatal(err)
	}
	kps := make([]Keypoint, 40)
	for i := range kps {
		kps[i].Desc = ms[i].Desc
		kps[i].X, kps[i].Y = float64(10+3*i), float64(20+i)
	}
	intr := Intrinsics{W: 200, H: 150, FovX: 1.1, FovY: 0.85}
	// The answers do not matter here, only that every path records.
	c.Query(ctx, kps, intr) //nolint:errcheck
	sess := c.Session()
	for i := 0; i < 2; i++ {
		sess.Query(ctx, kps, intr) //nolint:errcheck
	}
	if _, err := c.OracleSync().Sync(ctx); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricNames(rep); !slices.Equal(got, want) {
		t.Fatalf("instruments after traffic differ from those at construction:\n got  %v\n want %v", got, want)
	}
}
