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
// OracleSync, Watch — works end to end through the exported surface, and
// the pushed oracle agrees with the server's own.
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
	if _, err := srv.Ingest(context.Background(), "", randomMappings(9, 25)); err != nil {
		t.Fatal(err)
	}
	c, err := Connect(addr.String(), WithClientLogger(nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	h := c.OracleSync()
	updates, err := h.Watch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var got OracleUpdate
	select {
	case got = <-updates:
	case <-time.After(20 * time.Second):
		t.Fatal("no initial update")
	}
	if got.Err != nil || got.Oracle == nil {
		t.Fatalf("initial update = %+v", got)
	}
	want, err := srv.VenueOracle("")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oracleWireBytes(t, got.Oracle), oracleWireBytes(t, want)) {
		t.Fatal("watched oracle disagrees with the server's")
	}
}
