package server

import (
	"context"
	"testing"
)

// TestSessionQueryOverWire runs a continuous localization session through
// the full network stack: the first query solves cold and seeds the
// server-side session, the second arrives with a usable prior and is
// answered warm. Both answers must localize to (essentially) the same
// place, and the server's tracking metrics must show exactly one cold and
// one warm solve for the session.
func TestSessionQueryOverWire(t *testing.T) {
	s := startVenueServer(t)
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ms, kps, intr := syntheticCorpus(7, 160, 1200, 200)
	ctx := context.Background()
	if _, err := c.Ingest(ctx, ms); err != nil {
		t.Fatal(err)
	}

	sess := c.Session()
	if sess.ID() == 0 {
		t.Fatal("session ID is zero — reserved for no-session")
	}
	cold, err := sess.Query(ctx, kps, intr)
	if err != nil {
		t.Fatalf("first session query: %v", err)
	}
	warm, err := sess.Query(ctx, kps, intr)
	if err != nil {
		t.Fatalf("second session query: %v", err)
	}
	if d := cold.Position.Dist(warm.Position); d > 0.5 {
		t.Fatalf("warm answer drifted %.3fm from cold", d)
	}
	if got := s.router.tm.cold.Value(); got != 1 {
		t.Fatalf("track_cold = %d, want 1", got)
	}
	if got := s.router.tm.warm.Value(); got != 1 {
		t.Fatalf("track_warm = %d, want 1", got)
	}
	if n := s.router.trk.Len(); n != 1 {
		t.Fatalf("session table has %d sessions, want 1", n)
	}
}

// TestSessionVenueScopedOverWire: a session of a venue-scoped client carries
// both header options (venue and session ID) and lands its warm state on
// that venue's keyed session, isolated from the default venue.
func TestSessionVenueScopedOverWire(t *testing.T) {
	s := startVenueServer(t)
	ms, kps, intr := syntheticCorpus(7, 160, 1200, 200)
	ctx := context.Background()

	va := dialVenue(t, s, "venue-a")
	if _, err := va.Ingest(ctx, ms); err != nil {
		t.Fatal(err)
	}
	sess := va.Session()
	for i := 0; i < 2; i++ {
		if _, err := sess.Query(ctx, kps, intr); err != nil {
			t.Fatalf("venue session query %d: %v", i, err)
		}
	}
	if got := s.router.tm.warm.Value(); got != 1 {
		t.Fatalf("track_warm = %d, want 1", got)
	}
	if _, ok := s.router.trk.Predict(sessionKey("venue-a", sess.ID()), s.router.now()); !ok {
		t.Fatal("no session state under venue-a's key")
	}
	if _, ok := s.router.trk.Predict(sessionKey("", sess.ID()), s.router.now()); ok {
		t.Fatal("the venue session left state under the default venue's key")
	}
}
