package server

import (
	"context"
	"errors"
	"testing"
	"time"
)

// startVenueServer serves a deterministic-config database over TCP (venue
// routing is always on for a Serve-built server) and returns it.
func startVenueServer(t testing.TB) *Server {
	t.Helper()
	return serveRouter(t, newTestRouter(t, routerTestConfig(), nil))
}

// dialVenue dials s with every request scoped to the named venue.
func dialVenue(t testing.TB, s *Server, venue string) *Client {
	t.Helper()
	c, err := Dial(s.Addr().String(), WithVenue(venue))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestVenueIsolationOverWire: the cross-venue isolation guarantee holds
// through the full network stack — a venue-scoped client only sees its own data,
// and the typed ErrEmptyDatabase crosses the wire for foreign venues. The
// context carries a deadline, so every request's header holds both options.
func TestVenueIsolationOverWire(t *testing.T) {
	s := startVenueServer(t)
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ms, kps, intr := syntheticCorpus(7, 160, 500, 200)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	va := dialVenue(t, s, "venue-a")
	vb := dialVenue(t, s, "venue-b")
	total, err := va.Ingest(ctx, ms)
	if err != nil {
		t.Fatalf("venue-a ingest: %v", err)
	}
	if total != len(ms) {
		t.Fatalf("venue-a total = %d, want %d", total, len(ms))
	}
	if res, err := va.Query(ctx, kps, intr); err != nil || res.Matched == 0 {
		t.Fatalf("venue-a query: matched=%d err=%v", res.Matched, err)
	}
	if _, err := vb.Query(ctx, kps, intr); !errors.Is(err, ErrEmptyDatabase) {
		t.Fatalf("venue-b query: got %v, want ErrEmptyDatabase over the wire", err)
	}
	if _, err := c.Query(ctx, kps, intr); !errors.Is(err, ErrEmptyDatabase) {
		t.Fatalf("default venue query: got %v, want ErrEmptyDatabase", err)
	}
	if n, err := va.Stats(ctx); err != nil || int(n) != len(ms) {
		t.Fatalf("venue-a stats = %d, %v", n, err)
	}
	if n, err := c.Stats(ctx); err != nil || n != 0 {
		t.Fatalf("default venue stats = %d, %v (leak across venues?)", n, err)
	}
	st, err := va.StatsFull(ctx)
	if err != nil || st.Mappings != uint64(len(ms)) {
		t.Fatalf("venue-a StatsFull = %+v, %v", st, err)
	}
	if o, err := va.OracleSync().Sync(ctx); err != nil || o.Inserts() == 0 {
		t.Fatalf("venue-a oracle sync: %v", err)
	}
}
