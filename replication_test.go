package visualprint

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// freeAddr reserves a loopback port for a server that must advertise its
// address before it listens.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startFleetMember builds, opens and starts one durable replicated server.
func startFleetMember(t *testing.T, o ReplicationOptions) *Server {
	t.Helper()
	cfg := DefaultServerConfig()
	cfg.Pose.Deadline = 0
	srv, err := NewServer(cfg, WithReplication(o))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.OpenData(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Listen(o.Advertise); err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestReplicatedServerRefusesNamedVenues: replication covers only the
// default venue, so a semi-sync primary must not acknowledge what no replica
// holds. With its only replica closed, a default-venue ingest times out
// waiting for the quorum, and an ingest into a named venue is refused with
// ErrVenueNotReplicated — before the fix it was acknowledged. Queries of a
// named venue are refused the same way, and the construction-time checks
// close the other doors: no venue topology, no recorded named venue.
func TestReplicatedServerRefusesNamedVenues(t *testing.T) {
	if _, err := NewServer(DefaultServerConfig(),
		WithReplication(ReplicationOptions{Advertise: "127.0.0.1:1"}),
		WithVenueShards("x", 2)); err == nil {
		t.Fatal("NewServer accepted WithReplication together with WithVenueShards")
	}

	addrA, addrB := freeAddr(t), freeAddr(t)
	primary := startFleetMember(t, ReplicationOptions{Advertise: addrA, MinSyncReplicas: 1, SyncTimeout: time.Second})
	defer primary.Close()
	replica := startFleetMember(t, ReplicationOptions{Advertise: addrB, Primary: addrA})
	c, err := Connect(addrA, WithDialTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// The replica acknowledges once it tails the primary.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err = c.Ingest(ctx, testMappings(50, 1)); err == nil {
			break
		}
		if !errors.Is(err, ErrReplSyncTimeout) || time.Now().After(deadline) {
			t.Fatalf("default-venue ingest with the replica up: %v", err)
		}
	}
	replica.Close()

	// In-process, where ErrReplSyncTimeout keeps its identity (over the wire
	// it is a generic error).
	if _, err := primary.Ingest(ctx, "", testMappings(50, 2)); !errors.Is(err, ErrReplSyncTimeout) {
		t.Fatalf("default-venue ingest with the replica closed: %v, want ErrReplSyncTimeout", err)
	}
	cx, err := Connect(addrA, WithDialTimeout(5*time.Second), WithVenue("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer cx.Close()
	if total, err := cx.Ingest(ctx, testMappings(50, 3)); !errors.Is(err, ErrVenueNotReplicated) {
		t.Fatalf("ingest into venue \"x\" with the replica closed: total %d, err %v; want ErrVenueNotReplicated", total, err)
	}
	if _, err := primary.Ingest(ctx, "x", testMappings(50, 3)); !errors.Is(err, ErrVenueNotReplicated) {
		t.Fatalf("in-process ingest into venue \"x\": %v, want ErrVenueNotReplicated", err)
	}
	if _, err := cx.Query(ctx, nil, Intrinsics{W: 200, H: 150, FovX: 1.1, FovY: 0.85}); !errors.Is(err, ErrVenueNotReplicated) {
		t.Fatalf("query of venue \"x\": %v, want ErrVenueNotReplicated", err)
	}
	if got := primary.Venues(); len(got) != 0 {
		t.Fatalf("primary holds named venues %v", got)
	}

	// A data directory that records a named venue cannot be replicated.
	dir := t.TempDir()
	plain, err := NewServer(DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.OpenData(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Ingest(ctx, "x", testMappings(10, 4)); err != nil {
		t.Fatal(err)
	}
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}
	repl, err := NewServer(DefaultServerConfig(), WithReplication(ReplicationOptions{Advertise: freeAddr(t)}))
	if err != nil {
		t.Fatal(err)
	}
	if err := repl.OpenData(dir); !errors.Is(err, ErrVenueNotReplicated) {
		t.Fatalf("OpenData of a directory recording venue \"x\" on a replicated server: %v, want ErrVenueNotReplicated", err)
	}
}
