package repl

import (
	"bytes"
	"context"
	"testing"
	"time"

	"visualprint/internal/core"
	"visualprint/internal/netsim"
	"visualprint/internal/server"
	"visualprint/internal/testutil"
)

func oracleBytes(t testing.TB, o *core.Oracle) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := o.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChaosOracleSyncSurvivesPrimaryKill is the oracle-distribution
// failover scenario: a client keeps one OracleSync handle current against a
// replica while the primary feeds the fleet, then the client's own link is
// severed AND the primary is killed. The sentinel promotes, writes resume on
// the new primary, and the same handle — its client dialed with a retry
// policy, so a lost connection is redialed — must converge to an oracle
// byte-equal to the new primary's at its exact (epoch, inserts): the version
// history stays intact across the failover (replicas replay the identical
// WAL, so epochs agree fleet-wide).
func TestChaosOracleSyncSurvivesPrimaryKill(t *testing.T) {
	testutil.CheckGoroutines(t)
	ms := syntheticMappings(33, 48, 96)
	perBatch := 9

	// Primary behind its fault proxy (so killing it severs the fleet feed
	// abruptly), replicas direct.
	lnP := listen(t)
	proxyP, err := netsim.NewProxy(lnP.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxyP.Close() })
	primary := startMember(t, proxyP.Addr(), "", 1, lnP)
	primaryDead := false
	t.Cleanup(func() {
		if !primaryDead {
			primary.kill()
		}
	})
	lnA, lnB := listen(t), listen(t)
	ra := startMember(t, lnA.Addr().String(), proxyP.Addr(), 1, lnA)
	rb := startMember(t, lnB.Addr().String(), proxyP.Addr(), 1, lnB)
	t.Cleanup(ra.kill)
	t.Cleanup(rb.kill)
	sentinel, err := StartSentinel(SentinelConfig{
		Fleet:       []string{proxyP.Addr(), ra.addr, rb.addr},
		Interval:    100 * time.Millisecond,
		DownAfter:   3,
		DialTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sentinel.Close)

	// The syncing client reads from replica A through its own proxy, so its
	// connection can be cut independently of the fleet feed.
	proxyC, err := netsim.NewProxy(ra.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxyC.Close() })
	cli, err := server.Dial(proxyC.Addr(), server.WithDialTimeout(2*time.Second),
		server.WithRetryPolicy(server.DefaultRetryPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	h := cli.OracleSync()
	// syncTo syncs the held handle until it is byte-equal to m's oracle at
	// m's exact version. A sync may fail while the fleet is failing over;
	// the next attempt redials.
	syncTo := func(m *member, timeout time.Duration, what string) {
		t.Helper()
		waitFor(t, timeout, what, func() bool {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			o, err := h.Sync(ctx)
			if err != nil {
				return false
			}
			wantEpoch, wantInserts := m.db.OracleEpoch()
			he, hi, _ := h.Version()
			return he == wantEpoch && hi == wantInserts && bytes.Equal(oracleBytes(t, o), oracleBytes(t, m.db.OracleClone()))
		})
	}

	// Phase 1: acked ingests through the primary, a sync after each; the
	// handle must track the replica's replayed epochs.
	wcli, err := server.Dial(proxyP.Addr(), server.WithDialTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wcli.Close() })
	for i := 0; i < 4; i++ {
		ictx, icancel := context.WithTimeout(context.Background(), 15*time.Second)
		_, err := wcli.Ingest(ictx, ms[i*perBatch:(i+1)*perBatch])
		icancel()
		if err != nil {
			t.Fatalf("acked ingest %d: %v", i, err)
		}
		waitFor(t, 15*time.Second, "replica A to catch up", func() bool {
			return ra.db.StoreSeq() == primary.db.StoreSeq()
		})
		syncTo(ra, 15*time.Second, "the handle to reach the pre-kill state")
	}

	// Phase 2: cut the client's connection and kill the primary at once —
	// the handle loses its transport exactly as the fleet loses its writer.
	proxyC.Sever()
	proxyP.SetBlackhole(true)
	primary.kill()
	primaryDead = true
	proxyP.Close()

	var newP *member
	waitFor(t, 15*time.Second, "sentinel promotion", func() bool {
		for _, m := range []*member{ra, rb} {
			if m.rs.Role() == server.RolePrimary {
				newP = m
				return true
			}
		}
		return false
	})

	// Phase 3: writes resume on the promoted primary; the held handle must
	// converge byte-equal to the new primary's oracle at its version.
	extra := ms[4*perBatch : 6*perBatch]
	wcli2, err := server.Dial(newP.addr, server.WithDialTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wcli2.Close() })
	ictx, icancel := context.WithTimeout(context.Background(), 15*time.Second)
	_, err = wcli2.Ingest(ictx, extra)
	icancel()
	if err != nil {
		t.Fatalf("post-failover ingest: %v", err)
	}
	syncTo(newP, 30*time.Second, "the handle to converge on the post-failover oracle")
}
