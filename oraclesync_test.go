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

// TestPipelineOracleSyncMirror: the in-process handle mirrors the
// networked OracleSync semantics — full sync, unchanged ack, delta on
// top — lands byte-equal to the engine's oracle, and installs the result
// as the pipeline's filtering oracle.
func TestPipelineOracleSyncMirror(t *testing.T) {
	p, err := NewPipeline(smallWorld(), DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Server.Close() })
	ctx := context.Background()
	if err := p.Server.Ingest(randomMappings(4, 30)); err != nil {
		t.Fatal(err)
	}

	h := p.OracleSync()
	if _, _, ok := h.Version(); ok {
		t.Fatal("fresh handle claims a version")
	}
	o, err := h.Sync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := p.Server.VenueOracle("")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oracleWireBytes(t, o), oracleWireBytes(t, truth)) {
		t.Fatal("synced oracle differs from the engine's")
	}
	if p.Oracle != o {
		t.Fatal("sync did not install the pipeline's filtering oracle")
	}
	full := h.TransferBytes()
	if _, err := h.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := h.TransferBytes() - full; got != 16 {
		t.Fatalf("unchanged sync cost %d bytes, want the 16-byte version stamp", got)
	}

	if err := p.Server.Ingest(randomMappings(5, 3)); err != nil {
		t.Fatal(err)
	}
	before := h.TransferBytes()
	o2, err := h.Sync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	deltaCost := h.TransferBytes() - before
	if deltaCost >= full {
		t.Fatalf("small-batch delta cost %d >= initial full sync %d", deltaCost, full)
	}
	truth, err = p.Server.VenueOracle("")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oracleWireBytes(t, o2), oracleWireBytes(t, truth)) {
		t.Fatal("delta sync diverged from the engine's oracle")
	}
	if epoch, inserts, ok := h.Version(); !ok || epoch < 2 || inserts != o2.Inserts() {
		t.Fatalf("version after delta sync = (%d, %d, %v)", epoch, inserts, ok)
	}
}

// TestPipelineOracleWatch: the in-process Watch delivers the current state
// immediately, then a coalesced update per epoch advance; canceling the
// context closes the channel.
func TestPipelineOracleWatch(t *testing.T) {
	p, err := NewPipeline(smallWorld(), DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Server.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := p.Server.Ingest(randomMappings(6, 20)); err != nil {
		t.Fatal(err)
	}

	updates, err := p.OracleSync().Watch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	recv := func() OracleUpdate {
		select {
		case u, ok := <-updates:
			if !ok {
				t.Fatal("update channel closed early")
			}
			return u
		case <-time.After(20 * time.Second):
			t.Fatal("timed out waiting for an update")
			return OracleUpdate{}
		}
	}
	first := recv()
	if first.Err != nil || first.Oracle == nil {
		t.Fatalf("initial update = %+v", first)
	}
	if err := p.Server.Ingest(randomMappings(7, 5)); err != nil {
		t.Fatal(err)
	}
	second := recv()
	if second.Err != nil || second.Epoch <= first.Epoch {
		t.Fatalf("post-ingest update = (epoch %d, err %v), first epoch %d", second.Epoch, second.Err, first.Epoch)
	}
	truth, err := p.Server.VenueOracle("")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oracleWireBytes(t, second.Oracle), oracleWireBytes(t, truth)) {
		t.Fatal("watched oracle differs from the engine's")
	}

	cancel()
	select {
	case _, open := <-updates:
		if open {
			if _, open = <-updates; open {
				t.Fatal("update channel still open after cancel")
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("update channel not closed after cancel")
	}
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
	if err := srv.Ingest(randomMappings(9, 25)); err != nil {
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
