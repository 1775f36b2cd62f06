package repl

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"visualprint/internal/core"
	"visualprint/internal/netsim"
	"visualprint/internal/obs"
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

// TestChaosOracleWatchSurvivesPrimaryKill is the oracle-distribution
// failover scenario: a client watches a replica's oracle stream while the
// primary feeds the fleet, then — mid-delta-stream — the client's own link
// is severed AND the primary is killed. The sentinel promotes, writes
// resume on the new primary, and the watch must resubscribe on its own and
// converge to an oracle byte-equal to the new primary's, with the version
// history intact across the failover (replicas replay the identical WAL,
// so epochs agree fleet-wide).
func TestChaosOracleWatchSurvivesPrimaryKill(t *testing.T) {
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
		Log:         obs.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sentinel.Close)

	// The watching client reads from replica A through its own proxy, so
	// its subscription stream can be cut independently of the fleet feed.
	proxyC, err := netsim.NewProxy(ra.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxyC.Close() })
	cli, err := server.Dial(proxyC.Addr(), server.WithDialTimeout(2*time.Second), server.WithLogger(nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h := cli.OracleSync()
	updates, err := h.Watch(ctx)
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	// Drain updates into a latest-state cell; the watch coalesces, the
	// test only cares about convergence.
	var (
		mu     sync.Mutex
		latest server.OracleUpdate
		done   = make(chan struct{})
	)
	go func() {
		defer close(done)
		for u := range updates {
			mu.Lock()
			latest = u
			mu.Unlock()
		}
	}()
	snap := func() server.OracleUpdate {
		mu.Lock()
		defer mu.Unlock()
		return latest
	}

	// Phase 1: acked ingests through the primary; the watch must track the
	// replica's replayed epochs — this is the live delta stream.
	wcli, err := server.Dial(proxyP.Addr(), server.WithDialTimeout(2*time.Second), server.WithLogger(nil))
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
	}
	waitFor(t, 15*time.Second, "watch to reach the pre-kill state", func() bool {
		u := snap()
		if u.Err != nil || u.Oracle == nil {
			return false
		}
		wantEpoch, _ := ra.db.OracleEpoch()
		return u.Epoch == wantEpoch && ra.db.StoreSeq() == primary.db.StoreSeq()
	})

	// Phase 2: cut the client's stream and kill the primary at once — the
	// subscription dies mid-delta-stream exactly as the fleet loses its
	// writer.
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

	// Phase 3: writes resume on the promoted primary; the resubscribed
	// watch must converge byte-equal to the new primary's oracle.
	extra := ms[4*perBatch : 6*perBatch]
	wcli2, err := server.Dial(newP.addr, server.WithDialTimeout(2*time.Second), server.WithLogger(nil))
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
	live, err := newP.db.OracleClone()
	if err != nil {
		t.Fatal(err)
	}
	want := oracleBytes(t, live)
	waitFor(t, 30*time.Second, "watch to converge on the post-failover oracle", func() bool {
		u := snap()
		if u.Err != nil {
			t.Fatalf("watch failed instead of resubscribing: %v", u.Err)
		}
		return u.Oracle != nil && bytes.Equal(oracleBytes(t, u.Oracle), want)
	})
	wantEpoch, wantInserts := newP.db.OracleEpoch()
	u := snap()
	if u.Epoch != wantEpoch || u.Inserts != wantInserts {
		t.Fatalf("converged update at version (%d, %d), fleet at (%d, %d): epoch history broke across failover",
			u.Epoch, u.Inserts, wantEpoch, wantInserts)
	}

	// Clean teardown: cancel closes the update channel.
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("update channel not closed after cancel")
	}
}
