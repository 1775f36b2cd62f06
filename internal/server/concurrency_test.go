package server

// Tests for the concurrent query path: the multiplexed protocol
// (per-request routing under pipelining), the parallel Locate fan-out
// (bit-identical to the serial path), and context cancellation. All must
// stay -race clean.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"visualprint/internal/mathx"
	"visualprint/internal/pose"
	"visualprint/internal/sift"
)

// syntheticDB builds a database with deterministic contents: nCluster
// descriptors whose 3D positions form a tight spatial cluster (so queries
// reach the pose solver) plus nScatter descriptors scattered across the
// venue. The pose deadline is disabled so Locate is fully deterministic.
func syntheticDB(t testing.TB, seed int64, parallelism, nCluster, nScatter int) (*Database, []Mapping) {
	t.Helper()
	cfg := DefaultDatabaseConfig()
	cfg.LocateParallelism = parallelism
	cfg.Pose.Deadline = 0 // wall-clock budgets break determinism
	db, err := NewDatabase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	ms := make([]Mapping, 0, nCluster+nScatter)
	center := mathx.Vec3{X: 4, Y: 1.5, Z: 3}
	for i := 0; i < nCluster; i++ {
		var m Mapping
		for j := range m.Desc {
			m.Desc[j] = byte(rng.Intn(256))
		}
		m.Pos = mathx.Vec3{
			X: center.X + rng.Float64()*0.8 - 0.4,
			Y: center.Y + rng.Float64()*0.8 - 0.4,
			Z: center.Z + rng.Float64()*0.8 - 0.4,
		}
		ms = append(ms, m)
	}
	for i := 0; i < nScatter; i++ {
		var m Mapping
		for j := range m.Desc {
			m.Desc[j] = byte(rng.Intn(256))
		}
		m.Pos = mathx.Vec3{
			X: rng.Float64() * 12,
			Y: rng.Float64() * 3,
			Z: rng.Float64() * 9,
		}
		ms = append(ms, m)
	}
	if err := db.Ingest(context.Background(), ms); err != nil {
		t.Fatal(err)
	}
	return db, ms
}

// queryFromMappings builds a query whose keypoints carry the exact
// descriptors of ms[from:from+n] (guaranteed zero-distance LSH hits) laid
// out on a deterministic pixel grid.
func queryFromMappings(ms []Mapping, from, n int) []sift.Keypoint {
	kps := make([]sift.Keypoint, n)
	for i := range kps {
		kps[i].Desc = ms[from+i].Desc
		kps[i].X = float64(20 + (i%8)*22)
		kps[i].Y = float64(15 + (i/8)*18)
	}
	return kps
}

func testIntrinsics() pose.Intrinsics {
	return pose.Intrinsics{W: 200, H: 150, FovX: 1.1, FovY: 0.85}
}

// TestParallelLocateMatchesSerial: the fan-out path must produce
// bit-identical LocateResults to the serial path on fixed seeds.
func TestParallelLocateMatchesSerial(t *testing.T) {
	serial, ms := syntheticDB(t, 7, 1, 48, 40)
	parallel, _ := syntheticDB(t, 7, 8, 48, 40)
	for _, q := range []struct {
		from, n int
	}{
		{0, 48},  // all-cluster query, above the parallel threshold
		{8, 40},  // subset
		{40, 40}, // straddles cluster and scatter descriptors
	} {
		kps := queryFromMappings(ms, q.from, q.n)
		rs, errS := serial.Locate(context.Background(), kps, testIntrinsics())
		rp, errP := parallel.Locate(context.Background(), kps, testIntrinsics())
		if (errS == nil) != (errP == nil) || (errS != nil && errS.Error() != errP.Error()) {
			t.Fatalf("query %+v: serial err %v, parallel err %v", q, errS, errP)
		}
		if rs != rp {
			t.Fatalf("query %+v: serial %+v != parallel %+v", q, rs, rp)
		}
	}
	// Sanity: the comparison exercised the full pipeline, not just an
	// early error path.
	kps := queryFromMappings(ms, 0, 48)
	res, err := serial.Locate(context.Background(), kps, testIntrinsics())
	if err != nil {
		t.Fatalf("cluster query failed outright: %v", err)
	}
	if res.Matched < 3 {
		t.Fatalf("cluster query matched only %d keypoints", res.Matched)
	}
}

// TestSmallQueryStaysDeterministic covers the sequential-fallback boundary:
// queries below the threshold run serially even with parallelism enabled
// and must agree with a serial-only database too.
func TestSmallQueryStaysDeterministic(t *testing.T) {
	serial, ms := syntheticDB(t, 9, 1, 40, 20)
	parallel, _ := syntheticDB(t, 9, 4, 40, 20)
	kps := queryFromMappings(ms, 0, parallelLocateThreshold-2)
	rs, errS := serial.Locate(context.Background(), kps, testIntrinsics())
	rp, errP := parallel.Locate(context.Background(), kps, testIntrinsics())
	if (errS == nil) != (errP == nil) {
		t.Fatalf("serial err %v, parallel err %v", errS, errP)
	}
	if rs != rp {
		t.Fatalf("small query diverged: %+v != %+v", rs, rp)
	}
}

// TestPipelinedResponseRouting: concurrent requests on shared
// connections must each receive the response to their own request. Three
// distinct queries with distinct precomputed answers are fired interleaved
// from many goroutines; any routing mixup surfaces as a wrong result.
func TestPipelinedResponseRouting(t *testing.T) {
	db, ms := syntheticDB(t, 21, 0, 48, 40)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, routerFor(t, db))
	s.Log = nil
	defer s.Close()

	queries := [][]sift.Keypoint{
		queryFromMappings(ms, 0, 48),
		queryFromMappings(ms, 4, 44),
		queryFromMappings(ms, 10, 38),
	}
	want := make([]LocateResult, len(queries))
	wantErr := make([]error, len(queries))
	for i, q := range queries {
		want[i], wantErr[i] = db.Locate(context.Background(), q, testIntrinsics())
		want[i].Generations = 0 // in-process only, not carried on the wire
	}

	const clients = 3
	const perClient = 12
	var wg sync.WaitGroup
	errc := make(chan error, clients*perClient)
	for ci := 0; ci < clients; ci++ {
		c := dialClient(t, s)
		for g := 0; g < perClient; g++ {
			wg.Add(1)
			go func(c *Client, g int) {
				defer wg.Done()
				qi := g % len(queries)
				res, err := c.Query(context.Background(), queries[qi], testIntrinsics())
				if (err == nil) != (wantErr[qi] == nil) {
					errc <- fmt.Errorf("query %d: err %v, want %v", qi, err, wantErr[qi])
					return
				}
				if err == nil && res != want[qi] {
					errc <- fmt.Errorf("query %d: got %+v, want %+v (response misrouted?)", qi, res, want[qi])
				}
			}(c, g)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestConcurrentMixedWorkload stresses pipelined heterogeneous requests —
// queries, stats, ingests and oracle fetches racing on shared and separate
// connections — asserting per-request response-type routing throughout.
func TestConcurrentMixedWorkload(t *testing.T) {
	db, ms := syntheticDB(t, 33, 0, 48, 20)
	base := db.Len()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, routerFor(t, db))
	s.Log = nil
	defer s.Close()

	const clients = 4
	const opsPerClient = 8
	var wg sync.WaitGroup
	errc := make(chan error, clients*opsPerClient)
	var ingested int64
	var ingestMu sync.Mutex
	for ci := 0; ci < clients; ci++ {
		c := dialClient(t, s)
		for g := 0; g < opsPerClient; g++ {
			wg.Add(1)
			go func(c *Client, ci, g int) {
				defer wg.Done()
				ctx := context.Background()
				switch g % 4 {
				case 0: // localization query
					if _, err := c.Query(ctx, queryFromMappings(ms, 0, 40), testIntrinsics()); err != nil && !IsRemote(err) {
						errc <- fmt.Errorf("query transport error: %v", err)
					}
				case 1: // stats must always parse as a count
					n, err := c.Stats(ctx)
					if err != nil {
						errc <- fmt.Errorf("stats: %v", err)
					} else if n < uint64(base) {
						errc <- fmt.Errorf("stats %d below base %d", n, base)
					}
				case 2: // ingest a distinct batch
					batch := make([]Mapping, 3)
					for i := range batch {
						batch[i].Desc[0] = byte(ci)
						batch[i].Desc[1] = byte(g)
						batch[i].Desc[2] = byte(i)
						batch[i].Pos = mathx.Vec3{X: float64(ci), Y: 1, Z: float64(g)}
					}
					total, err := c.Ingest(ctx, batch)
					if err != nil {
						errc <- fmt.Errorf("ingest: %v", err)
						return
					}
					ingestMu.Lock()
					ingested += int64(len(batch))
					ingestMu.Unlock()
					if total < base+len(batch) {
						errc <- fmt.Errorf("ingest ack %d below %d", total, base+len(batch))
					}
				case 3: // typed error routing: 2 keypoints can never match
					_, err := c.Query(ctx, queryFromMappings(ms, 0, 2), testIntrinsics())
					if !errors.Is(err, ErrTooFewMatches) {
						errc <- fmt.Errorf("want ErrTooFewMatches, got %v", err)
					}
				}
			}(c, ci, g)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got := int64(db.Len()); got != int64(base)+ingested {
		t.Errorf("db has %d mappings, want %d", got, int64(base)+ingested)
	}
}

// TestConcurrentOracleFilteringAndIngest: oracle filtering runs on clones
// (Database.OracleClone — what a client downloads and what the Router merges
// into a venue oracle), and taking and querying them must be safe against
// concurrent Ingest. Run with -race (make verify does): a clone is copied
// from a pinned generation, so its reads can never interleave with Ingest's
// counter writes.
func TestConcurrentOracleFilteringAndIngest(t *testing.T) {
	db, ms := syntheticDB(t, 57, 0, 48, 40)
	kps := queryFromMappings(ms, 0, 32)

	const readers = 3
	const iters = 40
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				o, err := db.OracleClone()
				if err != nil {
					errc <- fmt.Errorf("OracleClone: %v", err)
					return
				}
				if w%2 == 0 {
					sel, err := o.SelectUnique(kps, 10)
					if err != nil {
						errc <- fmt.Errorf("SelectUnique: %v", err)
						return
					}
					if len(sel) != 10 {
						errc <- fmt.Errorf("SelectUnique returned %d keypoints, want 10", len(sel))
						return
					}
				} else {
					if _, err := o.Uniqueness(ms[i%len(ms)].Desc[:]); err != nil {
						errc <- fmt.Errorf("Uniqueness: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(58))
		for i := 0; i < iters; i++ {
			batch := make([]Mapping, 4)
			for b := range batch {
				for j := range batch[b].Desc {
					batch[b].Desc[j] = byte(rng.Intn(256))
				}
				batch[b].Pos = mathx.Vec3{X: rng.Float64() * 12, Y: rng.Float64() * 3, Z: rng.Float64() * 9}
			}
			if err := db.Ingest(context.Background(), batch); err != nil {
				errc <- fmt.Errorf("Ingest: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// Every reader and the writer ran to completion; the oracle now reflects
	// all inserts.
	if _, got := db.OracleEpoch(); got != uint64(db.Len()) {
		t.Errorf("oracle inserts %d != mappings %d", got, db.Len())
	}
}

// TestContextCancellation: a context deadline must abort the response wait,
// and an already-cancelled context must fail fast; the connection state
// stays coherent for the demux loop.
func TestContextCancellation(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	defer serverEnd.Close()
	// A black-hole server: consumes everything, answers nothing.
	go io.Copy(io.Discard, serverEnd)
	c := NewClient(clientEnd)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.Stats(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation did not abort the wait promptly")
	}

	done, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if _, err := c.Stats(done); !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
}

// TestCloseFailsInFlight: closing the connection must unblock waiters with
// a transport error rather than hanging them.
func TestCloseFailsInFlight(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	defer serverEnd.Close()
	go io.Copy(io.Discard, serverEnd)
	c := NewClient(clientEnd)
	errc := make(chan error, 1)
	go func() {
		_, err := c.Stats(context.Background())
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("in-flight call succeeded after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call hung after Close")
	}
}
