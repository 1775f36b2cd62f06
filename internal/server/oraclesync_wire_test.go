package server

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"visualprint/internal/codec"
	"visualprint/internal/core"
	"visualprint/internal/odelta"
)

// oracleBytes serializes an oracle for byte-equality comparison.
func oracleBytes(t testing.TB, o *core.Oracle) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := o.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fullFetch downloads the server's oracle with a fresh handle — whose first
// Sync is always answered by a full blob — and returns it with the transfer
// size.
func fullFetch(t testing.TB, c *Client) (*core.Oracle, int64) {
	t.Helper()
	h := c.OracleSync()
	o, err := h.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return o, h.TransferBytes()
}

// randomBatch builds n random mappings from rng (no geometric structure —
// oracle distribution only cares about descriptor inserts).
func randomBatch(rng *rand.Rand, n int) []Mapping {
	ms := make([]Mapping, n)
	for i := range ms {
		for j := range ms[i].Desc {
			ms[i].Desc[j] = byte(rng.Intn(256))
		}
		ms[i].Pos.X = rng.Float64() * 10
		ms[i].Pos.Y = rng.Float64() * 3
		ms[i].Pos.Z = rng.Float64() * 9
	}
	return ms
}

// TestOracleSyncLifecycleOverWire drives the OracleSync handle through the
// full network stack: first Sync downloads a full blob, a Sync with no
// server change is answered by the fixed-size unchanged ack, and a Sync
// after more ingests applies a delta — each state byte-equal to what a
// fresh full fetch sees, with Version tracking the server's epoch.
func TestOracleSyncLifecycleOverWire(t *testing.T) {
	s := startVenueServer(t)
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	if _, err := c.Ingest(ctx, randomBatch(rng, 40)); err != nil {
		t.Fatal(err)
	}

	h := c.OracleSync()
	if _, _, ok := h.Version(); ok {
		t.Fatal("fresh handle claims a version before any sync")
	}
	o, err := h.Sync(ctx)
	if err != nil {
		t.Fatalf("first sync: %v", err)
	}
	full := h.TransferBytes()
	if full == 0 {
		t.Fatal("first sync transferred zero bytes")
	}
	epoch, inserts, ok := h.Version()
	if !ok || epoch == 0 || inserts != o.Inserts() {
		t.Fatalf("version after first sync = (%d, %d, %v)", epoch, inserts, ok)
	}

	// No server change: the sync must be answered by the 16-byte ack and
	// return the same held oracle.
	o2, err := h.Sync(ctx)
	if err != nil {
		t.Fatalf("unchanged sync: %v", err)
	}
	if o2 != o {
		t.Fatal("unchanged sync replaced the held oracle")
	}
	if got := h.TransferBytes() - full; got != 16 {
		t.Fatalf("unchanged sync transferred %d bytes, want the 16-byte version ack", got)
	}

	// More ingests: the sync must advance the version and land byte-equal
	// to a fresh full fetch, for much less than a full blob.
	if _, err := c.Ingest(ctx, randomBatch(rng, 3)); err != nil {
		t.Fatal(err)
	}
	before := h.TransferBytes()
	o3, err := h.Sync(ctx)
	if err != nil {
		t.Fatalf("delta sync: %v", err)
	}
	deltaCost := h.TransferBytes() - before
	fresh, blobSize := fullFetch(t, c)
	if !bytes.Equal(oracleBytes(t, o3), oracleBytes(t, fresh)) {
		t.Fatal("delta sync diverged from a full fetch")
	}
	// The point of versioned sync is the downlink saving: a small update
	// must cost at least 5x fewer bytes than refetching the blob. Byte
	// counts are deterministic, so this is a gate, not a measurement.
	if 5*deltaCost > blobSize {
		t.Fatalf("3-mapping delta cost %d B vs full blob %d B: less than the 5x downlink saving versioned sync exists for", deltaCost, blobSize)
	}
	e2, i2, ok := h.Version()
	if !ok || e2 <= epoch || i2 != o3.Inserts() {
		t.Fatalf("version after delta sync = (%d, %d, %v), was (%d, %d)", e2, i2, ok, epoch, inserts)
	}
}

// TestOracleSyncByteEqualEveryEpoch is the acceptance property test: over
// randomized ingest sequences, handles syncing at different cadences — one
// every epoch, one every third, one every seventh — must land byte-equal
// to a fresh full fetch after every sync, at the server's exact (epoch,
// inserts), whether the server answered with a delta chain (lag within the
// retained window) or a full blob. The slower cadences are the multi-epoch
// catch-up: several ingests, then one Sync.
func TestOracleSyncByteEqualEveryEpoch(t *testing.T) {
	for _, seed := range []int64{3, 17, 99} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := startVenueServer(t)
			c, err := Dial(s.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ctx := context.Background()
			rng := rand.New(rand.NewSource(seed))

			cadences := map[int]*OracleSync{1: c.OracleSync(), 3: c.OracleSync(), 7: c.OracleSync()}
			epochs := 14
			if testing.Short() {
				epochs = 7
			}
			for e := 1; e <= epochs; e++ {
				if _, err := c.Ingest(ctx, randomBatch(rng, 1+rng.Intn(6))); err != nil {
					t.Fatal(err)
				}
				fresh, _ := fullFetch(t, c)
				want := oracleBytes(t, fresh)
				for cadence, h := range cadences {
					if e%cadence != 0 {
						continue
					}
					o, err := h.Sync(ctx)
					if err != nil {
						t.Fatalf("epoch %d cadence %d: %v", e, cadence, err)
					}
					if !bytes.Equal(oracleBytes(t, o), want) {
						t.Fatalf("epoch %d cadence %d: synced oracle differs from full fetch", e, cadence)
					}
					we, wi := s.router.Default().OracleEpoch()
					if he, hi, _ := h.Version(); he != we || hi != wi {
						t.Fatalf("epoch %d cadence %d: handle holds (%d, %d), server is at (%d, %d)", e, cadence, he, hi, we, wi)
					}
				}
			}
		})
	}
}

// TestOracleSyncCountCollisionRegression pins why the version identity is
// (epoch, inserts) and not the insert count alone: a client whose oracle
// comes from a divergent history — here a failover onto a server rebuilt
// with different data but an identical insert count — would be told
// "unchanged" by a count comparison while holding wrong cells. The sync
// must detect the divergence and converge byte-equal.
func TestOracleSyncCountCollisionRegression(t *testing.T) {
	ctx := context.Background()
	// History A: one batch. History B: the same mapping count as two
	// batches of different descriptors — same insert count (inserts per
	// mapping are fixed by the hash family), different cells, different
	// epoch count.
	sA, sB := startVenueServer(t), startVenueServer(t)
	msA := randomBatch(rand.New(rand.NewSource(1)), 12)
	msB := randomBatch(rand.New(rand.NewSource(2)), 12)
	cA, err := Dial(sA.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cA.Close()
	cB, err := Dial(sB.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cB.Close()
	if _, err := cA.Ingest(ctx, msA); err != nil {
		t.Fatal(err)
	}
	for _, half := range [][]Mapping{msB[:7], msB[7:]} {
		if _, err := cB.Ingest(ctx, half); err != nil {
			t.Fatal(err)
		}
	}

	held, _ := fullFetch(t, cA)
	truth, _ := fullFetch(t, cB)
	if held.Inserts() != truth.Inserts() {
		t.Fatalf("test premise broken: insert counts differ (%d vs %d)", held.Inserts(), truth.Inserts())
	}
	if bytes.Equal(oracleBytes(t, held), oracleBytes(t, truth)) {
		t.Fatal("test premise broken: different histories produced identical oracles")
	}

	// A handle holding history A's version identity against server B
	// resolves the divergence.
	h := &OracleSync{c: cB, oracle: held, epoch: 1, inserts: held.Inserts()}
	o, err := h.Sync(ctx)
	if err != nil {
		t.Fatalf("versioned sync across histories: %v", err)
	}
	if !bytes.Equal(oracleBytes(t, o), oracleBytes(t, truth)) {
		t.Fatal("versioned sync kept a stale oracle across an insert-count collision")
	}
}

// TestOracleSyncDenseChainNeverBeatsBlob: each ring record is sparse, but a
// long run of dense epochs can sum past one full snapshot — found by probing
// a live server after two whole wardrive passes, where the 15-epoch chain
// cost 2.4x the blob it replaced. The server must answer with whichever
// transfer is smaller.
func TestOracleSyncDenseChainNeverBeatsBlob(t *testing.T) {
	rt := newTestRouter(t, DefaultDatabaseConfig(), nil)
	db := rt.Default()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	if _, err := rt.Ingest(ctx, "", randomBatch(rng, 1500)); err != nil {
		t.Fatal(err)
	}
	haveEpoch, haveInserts := db.OracleEpoch()
	held := db.OracleClone()
	for i := 0; i < 4; i++ {
		if _, err := rt.Ingest(ctx, "", randomBatch(rng, 1500)); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := rt.OracleBlob("")
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.OracleSyncSince(haveEpoch, haveInserts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unchanged {
		t.Fatal("stale version reported unchanged")
	}
	cost := len(res.Delta) + len(res.Blob)
	if cost > len(blob) {
		t.Fatalf("sync transfer %d B exceeds the %d B full blob (delta=%d blob=%d)",
			cost, len(blob), len(res.Delta), len(res.Blob))
	}
	// Whichever arm answered must still reconstruct byte-equal.
	var o *core.Oracle
	if res.Blob != nil {
		raw, err := codec.Gunzip(res.Blob)
		if err != nil {
			t.Fatal(err)
		}
		if o, err = core.Read(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
	} else {
		recs, err := odelta.DecodeChain(res.Delta)
		if err != nil {
			t.Fatal(err)
		}
		if o, err = odelta.ApplyChain(held, recs); err != nil {
			t.Fatal(err)
		}
	}
	live := db.OracleClone()
	if !bytes.Equal(oracleBytes(t, o), oracleBytes(t, live)) {
		t.Fatal("sync answer diverges from the live oracle")
	}
}
