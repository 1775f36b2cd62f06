package visualprint

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"
)

func randomMappings(seed int64, n int) []Mapping {
	rng := rand.New(rand.NewSource(seed))
	ms := make([]Mapping, n)
	for i := range ms {
		for j := range ms[i].Desc {
			ms[i].Desc[j] = byte(rng.Intn(256))
		}
		ms[i].Pos = Vec3{X: rng.Float64() * 10, Y: rng.Float64() * 3, Z: rng.Float64() * 8}
	}
	return ms
}

func oracleWireBytes(t *testing.T, o *Oracle) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := o.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOracleSyncOverPublicAPI: the README quick-start shape — Connect,
// OracleSync, Sync after each ingest — works end to end through the
// exported surface: the first Sync downloads the server's oracle, a later
// one rides the delta window, and each agrees with the server's own.
func TestOracleSyncOverPublicAPI(t *testing.T) {
	srv, err := NewServer(DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Connect(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	h := c.OracleSync()
	for i, seed := range []int64{9, 10} {
		if _, err := srv.Ingest(ctx, "", randomMappings(seed, 25)); err != nil {
			t.Fatal(err)
		}
		got, err := h.Sync(ctx)
		if err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
		want, err := srv.VenueOracle("")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(oracleWireBytes(t, got), oracleWireBytes(t, want)) {
			t.Fatalf("sync %d: synced oracle disagrees with the server's", i)
		}
		if epoch, _, ok := h.Version(); !ok || epoch != uint64(i+1) {
			t.Fatalf("sync %d: held epoch %d (ok %v), want %d", i, epoch, ok, i+1)
		}
	}
	rep, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if full, delta := rep.Counters["oracle_syncs_full"], rep.Counters["oracle_syncs_delta"]; full != 1 || delta != 1 {
		t.Fatalf("answered %d full and %d delta syncs, want 1 and 1", full, delta)
	}
}
