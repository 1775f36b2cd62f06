package repl

import (
	"context"
	"reflect"
	"testing"
	"time"

	"visualprint/internal/server"
	"visualprint/internal/testutil"
)

// counters fetches a fleet member's counters over a throwaway direct
// connection — the server's own account of what it was asked to do.
func counters(t *testing.T, m *member) map[string]uint64 {
	t.Helper()
	cli, err := server.Dial(m.addr, server.WithDialTimeout(2*time.Second), server.WithLogger(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rep, err := cli.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Counters
}

// TestReadFromReplicaRoutesReadsAndFallsBack pins WithReadFromReplica on a
// real two-node fleet: a write lands on the primary and never touches the
// replica's front end; a query is answered by the replica (its locates
// counter moves, the primary's does not); and once the replica is killed the
// same query falls back to the primary and returns the same bits.
func TestReadFromReplicaRoutesReadsAndFallsBack(t *testing.T) {
	testutil.CheckGoroutines(t)
	ms := syntheticMappings(33, 48, 40)
	lnP, lnR := listen(t), listen(t)
	primary := startMember(t, lnP.Addr().String(), "", 0, lnP)
	t.Cleanup(primary.kill)
	replica := startMember(t, lnR.Addr().String(), primary.addr, 0, lnR)
	replicaDead := false
	t.Cleanup(func() {
		if !replicaDead {
			replica.kill()
		}
	})

	cli, err := server.Dial(primary.addr, server.WithDialTimeout(2*time.Second), server.WithLogger(nil),
		server.WithReadFromReplica(replica.addr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// The write goes to the primary: it holds the batch the moment the ack
	// returns, and the replica's server never saw an ingest request (it gets
	// the batch by replication).
	total, err := cli.Ingest(ctx, ms)
	if err != nil || total != len(ms) || primary.db.Len() != len(ms) {
		t.Fatalf("ingest = %d, %v; primary holds %d, want %d", total, err, primary.db.Len(), len(ms))
	}
	if n := counters(t, replica)["requests_ingest"]; n != 0 {
		t.Fatalf("replica served %d ingest requests; writes must go to the primary", n)
	}
	waitFor(t, 10*time.Second, "replica to catch up", func() bool {
		return replica.db.StoreSeq() == primary.db.StoreSeq()
	})

	// The read goes to the replica.
	kps := queryFrom(ms, 0, 24)
	pBefore, rBefore := counters(t, primary)["locates"], counters(t, replica)["locates"]
	fromReplica, err := cli.Query(ctx, kps, testIntrinsics())
	if err != nil {
		t.Fatalf("query via replica: %v", err)
	}
	if p, r := counters(t, primary)["locates"], counters(t, replica)["locates"]; p != pBefore || r != rBefore+1 {
		t.Fatalf("after one query: primary locates %d -> %d, replica %d -> %d; want the replica to have answered", pBefore, p, rBefore, r)
	}
	if n, err := cli.Stats(ctx); err != nil || n != uint64(len(ms)) {
		t.Fatalf("stats via replica = %d, %v; want %d", n, err, len(ms))
	}
	if n := counters(t, replica)["requests_stats"]; n != 1 {
		t.Fatalf("replica served %d stats requests, want 1", n)
	}

	// With the replica gone the same read falls back to the primary, which
	// holds the same mappings in the same order: the same bits.
	replica.kill()
	replicaDead = true
	fromPrimary, err := cli.Query(ctx, kps, testIntrinsics())
	if err != nil {
		t.Fatalf("query after the replica died: %v", err)
	}
	if p := counters(t, primary)["locates"]; p != pBefore+1 {
		t.Fatalf("primary locates %d -> %d after the fallback query, want +1", pBefore, p)
	}
	if !reflect.DeepEqual(fromReplica, fromPrimary) {
		t.Fatalf("fallback answer differs:\nreplica %+v\nprimary %+v", fromReplica, fromPrimary)
	}
}
