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
	cli, err := server.Dial(m.addr, server.WithDialTimeout(2*time.Second))
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

// TestReplicaDialServesReads pins replica-served reads on a real two-node
// fleet: a client dialed straight to the replica has its query answered
// there (the replica's locates counter moves, the primary's does not), and
// the answer has the same bits as the primary's for the same query.
func TestReplicaDialServesReads(t *testing.T) {
	testutil.CheckGoroutines(t)
	ms := syntheticMappings(33, 48, 40)
	lnP, lnR := listen(t), listen(t)
	primary := startMember(t, lnP.Addr().String(), "", 0, lnP)
	t.Cleanup(primary.kill)
	replica := startMember(t, lnR.Addr().String(), primary.addr, 0, lnR)
	t.Cleanup(replica.kill)

	dial := func(m *member) *server.Client {
		cli, err := server.Dial(m.addr, server.WithDialTimeout(2*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close() })
		return cli
	}
	pcli, rcli := dial(primary), dial(replica)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if total, err := pcli.Ingest(ctx, ms); err != nil || total != len(ms) {
		t.Fatalf("ingest = %d, %v; want %d", total, err, len(ms))
	}
	waitFor(t, 10*time.Second, "replica to catch up", func() bool {
		return replica.db.StoreSeq() == primary.db.StoreSeq()
	})

	kps := queryFrom(ms, 0, 24)
	pBefore, rBefore := counters(t, primary)["locates"], counters(t, replica)["locates"]
	fromReplica, err := rcli.Query(ctx, kps, testIntrinsics())
	if err != nil {
		t.Fatalf("query via replica: %v", err)
	}
	if p, r := counters(t, primary)["locates"], counters(t, replica)["locates"]; p != pBefore || r != rBefore+1 {
		t.Fatalf("after one query: primary locates %d -> %d, replica %d -> %d; want the replica to have answered", pBefore, p, rBefore, r)
	}
	if n, err := rcli.Stats(ctx); err != nil || n != uint64(len(ms)) {
		t.Fatalf("stats via replica = %d, %v; want %d", n, err, len(ms))
	}
	if n := counters(t, replica)["requests_stats"]; n != 1 {
		t.Fatalf("replica served %d stats requests, want 1", n)
	}

	// The primary holds the same mappings in the same order: the same bits.
	fromPrimary, err := pcli.Query(ctx, kps, testIntrinsics())
	if err != nil {
		t.Fatalf("query via primary: %v", err)
	}
	if !reflect.DeepEqual(fromReplica, fromPrimary) {
		t.Fatalf("replica answer differs:\nreplica %+v\nprimary %+v", fromReplica, fromPrimary)
	}
}
