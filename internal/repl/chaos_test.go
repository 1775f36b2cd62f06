package repl

// Replication chaos tests: a real fleet (primary + replicas, each with its
// own durable directory and TCP listener) driven through the netsim
// fault-injection proxy. The contract under test is the issue's acceptance
// scenario — partition the primary mid-ingest, kill it, let the sentinel
// promote the most-caught-up replica, and prove that every
// client-acknowledged ingest is present and Locate is bit-identical on the
// new primary — plus the full-sync path losing its feed mid-snapshot.
// All of it must stay -race clean; these are the tests the Makefile's
// chaos target runs.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"visualprint/internal/mathx"
	"visualprint/internal/netsim"
	"visualprint/internal/obs"
	"visualprint/internal/pose"
	"visualprint/internal/server"
	"visualprint/internal/sift"
	"visualprint/internal/testutil"
)

// testConfig returns a deterministic engine configuration: no pose
// wall-clock budget, serial retrieval — so two databases holding the same
// mappings in the same order answer Locate bit-identically.
func testConfig() server.DatabaseConfig {
	cfg := server.DefaultDatabaseConfig()
	cfg.Pose.Deadline = 0
	cfg.LocateParallelism = 1
	return cfg
}

// syntheticMappings mirrors the server package's test fixture: a tight
// spatial cluster (queries against it reach the pose solver) plus scatter.
func syntheticMappings(seed int64, nCluster, nScatter int) []server.Mapping {
	rng := rand.New(rand.NewSource(seed))
	ms := make([]server.Mapping, 0, nCluster+nScatter)
	center := mathx.Vec3{X: 4, Y: 1.5, Z: 3}
	for i := 0; i < nCluster; i++ {
		var m server.Mapping
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
		var m server.Mapping
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
	return ms
}

// queryFrom builds a query whose keypoints carry ms[from:from+n]'s exact
// descriptors on a deterministic pixel grid.
func queryFrom(ms []server.Mapping, from, n int) []sift.Keypoint {
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

// member is one fleet process: durable shard database, replication state,
// TCP front end, and the background replication node.
type member struct {
	db   *server.Database
	rs   *server.ReplState
	srv  *server.Server
	node *Node
	addr string // advertised address
}

// startMember brings up a fleet member on ln. advertise is the address
// peers reach it at (the proxy's, when fronted); primary empty starts it as
// the fleet primary. The member is NOT auto-closed: chaos tests kill
// members mid-test, so each test owns the teardown via m.kill.
func startMember(t *testing.T, advertise, primary string, minSync int, ln net.Listener) *member {
	t.Helper()
	router, err := server.NewRouter(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := router.OpenVenues(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	db := router.Default()
	rs := server.NewReplState(db, server.ReplConfig{
		Self:            advertise,
		Primary:         primary,
		MinSyncReplicas: minSync,
		SyncTimeout:     10 * time.Second,
		MaxStaleness:    time.Minute, // replicas answer in-test reads even while partitioned
	})
	db.SetLogger(obs.Discard)
	srv := server.Serve(ln, router, server.WithReplState(rs))
	srv.Log = nil
	rs.SetLogger(obs.Discard) // after Serve, which wires the server's logger
	node, err := StartNode(NodeConfig{
		DB: db, State: rs, Log: obs.Discard,
		FetchWait: 200 * time.Millisecond,
		Backoff:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &member{db: db, rs: rs, srv: srv, node: node, addr: advertise}
}

// kill tears the member down abruptly: listener and connections cut, the
// replication loop stopped. Safe to call once per member.
func (m *member) kill() {
	m.node.Close()
	m.srv.Close()
	m.rs.Close()
	m.db.Close()
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// TestChaosFailoverPreservesAckedIngests is the issue's acceptance
// scenario. A semi-sync primary (MinSyncReplicas=1) fronted by a fault
// proxy streams to two replicas. Clients ingest acknowledged batches; then
// the network partitions mid-ingest (an in-flight batch dies unacked), the
// primary is killed, and the sentinel must promote the most-caught-up
// replica. Every acknowledged batch must be present on the new primary,
// with Locate bit-identical to a golden database holding exactly the
// acknowledged history — and a client writing to the demoted fleet member
// must be redirected to the new primary transparently.
func TestChaosFailoverPreservesAckedIngests(t *testing.T) {
	testutil.CheckGoroutines(t)
	batches, perBatch := 8, 11
	if testing.Short() {
		batches = 4
	}
	// Enough mappings for the acked batches plus the lost and redirected
	// ones: (batches+2) * perBatch.
	ms := syntheticMappings(21, 48, 72)

	// Primary behind the fault proxy: every byte anyone exchanges with it —
	// client writes, replica fetches, sentinel probes — crosses the proxy,
	// so one switch partitions it from the whole world.
	lnP := listen(t)
	proxy, err := netsim.NewProxy(lnP.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	primary := startMember(t, proxy.Addr(), "", 1, lnP)
	primaryDead := false
	t.Cleanup(func() {
		if !primaryDead {
			primary.kill()
		}
	})

	lnA, lnB := listen(t), listen(t)
	ra := startMember(t, lnA.Addr().String(), proxy.Addr(), 1, lnA)
	rb := startMember(t, lnB.Addr().String(), proxy.Addr(), 1, lnB)
	t.Cleanup(ra.kill)
	t.Cleanup(rb.kill)

	sentinel, err := StartSentinel(SentinelConfig{
		Fleet:       []string{proxy.Addr(), ra.addr, rb.addr},
		Interval:    100 * time.Millisecond,
		DownAfter:   3,
		DialTimeout: 500 * time.Millisecond,
		Log:         obs.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sentinel.Close)

	// Phase 1: acknowledged ingests through the proxy. Semi-sync means each
	// ack proves the batch is durable on at least one replica.
	cli, err := server.Dial(proxy.Addr(), server.WithDialTimeout(2*time.Second), server.WithLogger(nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	var acked [][]server.Mapping
	for i := 0; i < batches; i++ {
		batch := ms[i*perBatch : (i+1)*perBatch]
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		_, err := cli.Ingest(ctx, batch)
		cancel()
		if err != nil {
			t.Fatalf("acked ingest %d failed: %v", i, err)
		}
		acked = append(acked, batch)
	}

	// Phase 2: partition the primary, then fire an ingest into the void —
	// it must fail, and being unacknowledged it is allowed to vanish.
	proxy.SetBlackhole(true)
	lost := ms[batches*perBatch : batches*perBatch+perBatch]
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	if _, err := cli.Ingest(ctx, lost); err == nil {
		t.Fatal("ingest through a blackholed network succeeded")
	}
	cancel()

	// Kill the primary for real. The proxy dies with it, so redials fail
	// fast instead of hanging in the blackhole.
	primary.kill()
	primaryDead = true
	proxy.Close()

	// The sentinel must notice and promote whichever replica is most
	// caught up — with every acked batch semi-sync-replicated and no
	// further primary writes, that replica holds the full acked history.
	var newP, other *member
	waitFor(t, 15*time.Second, "sentinel promotion", func() bool {
		for _, m := range []*member{ra, rb} {
			if m.rs.Role() == server.RolePrimary {
				newP = m
				return true
			}
		}
		return false
	})
	if newP == ra {
		other = rb
	} else {
		other = ra
	}
	// The fleet began at epoch 0; the promotion must have advanced past it.
	if got := newP.rs.Epoch(); got < 1 {
		t.Fatalf("promoted replica at epoch %d, want >= 1", got)
	}
	waitFor(t, 10*time.Second, "demoted member to follow the new primary", func() bool {
		return other.rs.PrimaryAddr() == newP.addr && other.rs.Role() == server.RoleReplica
	})

	// A client writing to the wrong member must be redirected to the new
	// primary and succeed there (semi-sync: the other replica acks it).
	extra := ms[(batches+1)*perBatch : (batches+2)*perBatch]
	cli2, err := server.Dial(other.addr, server.WithDialTimeout(2*time.Second), server.WithLogger(nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli2.Close() })
	rctx, rcancel := context.WithTimeout(context.Background(), 15*time.Second)
	total, err := cli2.Ingest(rctx, extra)
	rcancel()
	if err != nil {
		t.Fatalf("redirected ingest failed: %v", err)
	}
	wantTotal := batches*perBatch + len(extra)
	if total != wantTotal {
		t.Fatalf("new primary holds %d mappings, want %d (acked history + redirected batch, nothing else)", total, wantTotal)
	}

	// Golden comparison: a fresh database fed exactly the acknowledged
	// history (plus the redirected batch) must answer Locate bit-identically
	// to the promoted primary — same position, same matches, same
	// everything. The unacknowledged batch must have left no trace.
	golden, err := server.NewDatabase(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range append(append([][]server.Mapping{}, acked...), extra) {
		if err := golden.Ingest(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []struct{ from, n int }{{0, 24}, {8, 16}} {
		kps := queryFrom(ms, q.from, q.n)
		want, errW := golden.Locate(context.Background(), kps, testIntrinsics())
		got, errG := newP.db.Locate(context.Background(), kps, testIntrinsics())
		if !errors.Is(errG, errW) && fmt.Sprint(errW) != fmt.Sprint(errG) {
			t.Fatalf("query [%d,%d): golden err %v, new primary err %v", q.from, q.from+q.n, errW, errG)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("query [%d,%d): Locate diverged after failover:\ngolden %+v\nnew primary %+v", q.from, q.from+q.n, want, got)
		}
	}

	// Read scaling: once the surviving replica catches up with the
	// redirected batch, its Locate must match too.
	waitFor(t, 10*time.Second, "surviving replica to catch up", func() bool {
		return other.db.StoreSeq() == newP.db.StoreSeq()
	})
	kps := queryFrom(ms, 0, 24)
	want, _ := newP.db.Locate(context.Background(), kps, testIntrinsics())
	got, _ := other.db.Locate(context.Background(), kps, testIntrinsics())
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("replica Locate diverged from promoted primary:\nprimary %+v\nreplica %+v", want, got)
	}
}

// TestChaosFullSyncSurvivesFeedLossMidTransfer exercises the snapshot
// transfer path: a fresh replica joins a fleet whose primary has already
// compacted its WAL (so tailing from record 0 is impossible and a full
// snapshot transfer is the only way in), and the network feed dies in the
// middle of that transfer. The replica must restart the full-sync cleanly
// once the network heals and end byte-identical — same applied offset, same
// Locate answers — then keep tailing live ingests.
func TestChaosFullSyncSurvivesFeedLossMidTransfer(t *testing.T) {
	testutil.CheckGoroutines(t)
	ms := syntheticMappings(21, 48, 40)

	lnP := listen(t)
	proxy, err := netsim.NewProxy(lnP.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	primary := startMember(t, proxy.Addr(), "", 0, lnP)
	t.Cleanup(primary.kill)

	// Seed the primary and compact: the history now exists only as a
	// snapshot, so the replica below cannot tail from zero.
	for i := 0; i < 8; i++ {
		if err := primary.db.Ingest(context.Background(), ms[i*11:(i+1)*11]); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.db.Compact(); err != nil {
		t.Fatal(err)
	}

	// Slow the wire so the multi-megabyte snapshot blob crawls through the
	// proxy chunk by chunk — wide window to cut the feed mid-transfer.
	proxy.SetLatency(15 * time.Millisecond)

	lnR := listen(t)
	replica := startMember(t, lnR.Addr().String(), proxy.Addr(), 0, lnR)
	t.Cleanup(replica.kill)

	// The replica flips to candidate when the transfer starts; cut the
	// feed shortly after, while the blob is still trickling.
	waitFor(t, 10*time.Second, "replica to begin full-sync", func() bool {
		return replica.rs.Role() == server.RoleCandidate
	})
	time.Sleep(150 * time.Millisecond)
	proxy.Sever()
	proxy.SetRefuse(true) // the primary is unreachable, not just severed
	time.Sleep(300 * time.Millisecond)

	// Heal. The replica must restart the transfer from scratch on its own
	// (no half-installed state) and converge.
	proxy.SetRefuse(false)
	proxy.SetLatency(0)
	waitFor(t, 30*time.Second, "full-sync to complete after feed loss", func() bool {
		return replica.rs.Role() == server.RoleReplica &&
			replica.db.StoreSeq() == primary.db.StoreSeq()
	})

	compare := func(stage string) {
		t.Helper()
		for _, q := range []struct{ from, n int }{{0, 24}, {16, 24}} {
			kps := queryFrom(ms, q.from, q.n)
			want, errW := primary.db.Locate(context.Background(), kps, testIntrinsics())
			got, errG := replica.db.Locate(context.Background(), kps, testIntrinsics())
			if fmt.Sprint(errW) != fmt.Sprint(errG) {
				t.Fatalf("%s: query [%d,%d): primary err %v, replica err %v", stage, q.from, q.from+q.n, errW, errG)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: Locate diverged:\nprimary %+v\nreplica %+v", stage, want, got)
			}
		}
	}
	compare("after full-sync")

	// The synced replica must now tail live writes like any other.
	if err := primary.db.Ingest(context.Background(), ms[0:11]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "replica to tail the post-sync ingest", func() bool {
		return replica.db.StoreSeq() == primary.db.StoreSeq()
	})
	compare("after post-sync tail")
}
