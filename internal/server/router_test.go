package server

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"visualprint/internal/codec"
	"visualprint/internal/mathx"
	"visualprint/internal/pose"
	"visualprint/internal/sift"
)

// routerTestConfig makes Locate a pure function of database state (no
// wall-clock solver deadline) so bit-identity comparisons are meaningful.
func routerTestConfig() DatabaseConfig {
	cfg := DefaultDatabaseConfig()
	cfg.Pose.Deadline = 0
	return cfg
}

// syntheticCorpus builds a deterministic localizable workload: a tight
// descriptor cluster on a wall-like slab plus scattered decoys, and one
// query captured from the standard camera position facing the slab.
func syntheticCorpus(seed int64, clusterN, scatterN, queryN int) ([]Mapping, []sift.Keypoint, pose.Intrinsics) {
	rng := rand.New(rand.NewSource(seed))
	center := mathx.Vec3{X: 4, Y: 1.5, Z: 7.5}
	ms := make([]Mapping, 0, clusterN+scatterN)
	for i := 0; i < clusterN; i++ {
		var m Mapping
		for j := range m.Desc {
			m.Desc[j] = byte(rng.Intn(256))
		}
		m.Pos = mathx.Vec3{
			X: center.X + rng.Float64()*5.6 - 2.8,
			Y: center.Y + rng.Float64()*1.4 - 0.7,
			Z: center.Z + rng.Float64()*0.8 - 0.4,
		}
		ms = append(ms, m)
	}
	for i := 0; i < scatterN; i++ {
		var m Mapping
		for j := range m.Desc {
			m.Desc[j] = byte(rng.Intn(256))
		}
		m.Pos = mathx.Vec3{X: rng.Float64() * 12, Y: rng.Float64() * 3, Z: rng.Float64() * 9}
		ms = append(ms, m)
	}
	kps, intr := syntheticQuery(ms, clusterN, queryN, mathx.Vec3{X: 4, Y: 1.4, Z: 2})
	return ms, kps, intr
}

// syntheticQuery is the fingerprint a camera at cam captures of a
// syntheticCorpus: the first clusterN keypoints are true pinhole
// projections of the slab mappings, the rest decoys on a pixel grid.
func syntheticQuery(ms []Mapping, clusterN, queryN int, cam mathx.Vec3) ([]sift.Keypoint, pose.Intrinsics) {
	intr := pose.Intrinsics{W: 200, H: 150, FovX: 1.1, FovY: 0.85}
	cx, cy := float64(intr.W)/2, float64(intr.H)/2
	focal := cx / math.Tan(intr.FovX/2)
	kps := make([]sift.Keypoint, queryN)
	for i := range kps {
		kps[i].Desc = ms[i].Desc
		if i < clusterN {
			d := ms[i].Pos.Sub(cam)
			kps[i].X = cx + focal*d.X/d.Z
			kps[i].Y = cy - focal*d.Y/d.Z
		} else {
			kps[i].X = float64(10 + (i%16)*11)
			kps[i].Y = float64(8 + (i/16)*10)
		}
	}
	return kps, intr
}

// shardedFixture ingests ms into a router's default one-shard venue — the
// reference — and, with identical batch boundaries, into a fresh sharded
// venue, so both see the same insertion order.
func shardedFixture(t testing.TB, cfg DatabaseConfig, shards int, ms []Mapping, batch int) (*Router, string) {
	t.Helper()
	const venueName = "test-venue"
	r := newTestRouter(t, cfg, map[string]VenueConfig{venueName: {Shards: shards}})
	for i := 0; i < len(ms); i += batch {
		end := i + batch
		if end > len(ms) {
			end = len(ms)
		}
		for _, name := range []string{"", venueName} {
			if _, err := r.Ingest(context.Background(), name, ms[i:end]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if r.Len("") != r.Len(venueName) {
		t.Fatalf("mapping counts diverge: single %d, venue %d", r.Len(""), r.Len(venueName))
	}
	return r, venueName
}

// requireBitIdentical compares two locate outcomes down to the float bits:
// the gather over several shards must reproduce the one-shard candidate
// list exactly, and the deterministic solver then reproduces the pose.
func requireBitIdentical(t *testing.T, single LocateResult, errS error, sharded LocateResult, errR error) {
	t.Helper()
	if (errS == nil) != (errR == nil) || (errS != nil && errS.Error() != errR.Error()) {
		t.Fatalf("locate errors diverge: single=%v sharded=%v", errS, errR)
	}
	if errS != nil {
		return
	}
	type bits struct{ px, py, pz, yaw, res uint64 }
	b := func(r LocateResult) bits {
		return bits{
			px:  math.Float64bits(r.Position.X),
			py:  math.Float64bits(r.Position.Y),
			pz:  math.Float64bits(r.Position.Z),
			yaw: math.Float64bits(r.Yaw),
			res: math.Float64bits(r.Residual),
		}
	}
	if b(single) != b(sharded) || single.Matched != sharded.Matched {
		t.Fatalf("locate results diverge at the bit level:\n single:  %+v\n sharded: %+v", single, sharded)
	}
	if single.Matched == 0 {
		t.Fatal("locate matched nothing; fixture too weak to be meaningful")
	}
}

// TestRouterLocateBitIdenticalSynthetic is the fast golden test: a 4-shard
// venue's Locate must equal the one-shard default venue's
// answer bit for bit (Float64bits-equal pose), on a deterministic synthetic corpus.
func TestRouterLocateBitIdenticalSynthetic(t *testing.T) {
	cfg := routerTestConfig()
	ms, kps, intr := syntheticCorpus(7, 160, 1500, 200)
	r, venueName := shardedFixture(t, cfg, 4, ms, 311)

	rs, errS := r.Locate(context.Background(), "", kps, intr)
	rr, errR := r.Locate(context.Background(), venueName, kps, intr)
	requireBitIdentical(t, rs, errS, rr, errR)

	// A query of pure decoys must fail identically too.
	decoys, _, _ := syntheticCorpus(99, 0, 64, 64)
	bad := make([]sift.Keypoint, len(decoys))
	for i := range bad {
		bad[i].Desc = decoys[i].Desc
		bad[i].X, bad[i].Y = float64(5+i%10*17), float64(4+i/10*13)
	}
	rs, errS = r.Locate(context.Background(), "", bad, intr)
	rr, errR = r.Locate(context.Background(), venueName, bad, intr)
	requireBitIdentical(t, rs, errS, rr, errR)
}

// BenchmarkRouterLocate is the local profiling entry point for one cold
// server-side Locate (200-keypoint fingerprint, ~4k mappings, full solver
// budget, no wall-clock deadline) on a one-shard and a 4-shard venue (the
// same body, locateShards). It gates nothing; benchmark/ is the measurement.
//
//	go test -run NONE -bench RouterLocate -cpuprofile cpu.pprof ./internal/server
func BenchmarkRouterLocate(b *testing.B) {
	cfg := DefaultDatabaseConfig()
	cfg.Pose.Deadline = 0
	ms, kps, intr := syntheticCorpus(7, 160, 4000, 200)
	r, sharded := shardedFixture(b, cfg, 4, ms, 500)
	for _, bc := range []struct{ name, venue string }{{"shards=1", ""}, {"shards=4", sharded}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := r.Locate(context.Background(), bc.venue, kps, intr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRouterLocateBitIdenticalWardriven is the same golden property on a
// real wardriven corpus and rendered query — the shard partition here is
// whatever the spatial hash produces on realistic positions.
func TestRouterLocateBitIdenticalWardriven(t *testing.T) {
	if testing.Short() {
		t.Skip("wardriving a venue is slow")
	}
	cfg := DefaultDatabaseConfig()
	cfg.Pose.Deadline = 0
	w := testVenue()
	ms := wardriveMappings(t)
	kps, intr := queryKeypoints(t, w)
	r, venueName := shardedFixture(t, cfg, 4, ms, 700)

	rs, errS := r.Locate(context.Background(), "", kps, intr)
	rr, errR := r.Locate(context.Background(), venueName, kps, intr)
	requireBitIdentical(t, rs, errS, rr, errR)
}

// TestVenueIsolation pins the multi-tenant guarantee: a venue only ever
// answers from its own ingests. Cross-venue queries (and the untouched
// default venue) fail with ErrEmptyDatabase.
func TestVenueIsolation(t *testing.T) {
	cfg := routerTestConfig()
	r := newTestRouter(t, cfg, nil)
	ms, kps, intr := syntheticCorpus(7, 160, 800, 200)
	if _, err := r.Ingest(context.Background(), "venue-a", ms); err != nil {
		t.Fatal(err)
	}

	if _, err := r.Locate(context.Background(), "venue-a", kps, intr); err != nil {
		t.Fatalf("venue-a should localize its own data: %v", err)
	}
	if _, err := r.Locate(context.Background(), "venue-b", kps, intr); !errors.Is(err, ErrEmptyDatabase) {
		t.Fatalf("cross-venue query: got %v, want ErrEmptyDatabase", err)
	}
	if _, err := r.Locate(context.Background(), "", kps, intr); !errors.Is(err, ErrEmptyDatabase) {
		t.Fatalf("default venue query: got %v, want ErrEmptyDatabase", err)
	}
	if n := r.Len("venue-b"); n != 0 {
		t.Fatalf("venue-b reports %d mappings", n)
	}
	if got := r.Venues(); len(got) != 1 || got[0] != "venue-a" {
		t.Fatalf("Venues() = %v", got)
	}
}

// TestVenueOracleMergeEquality: the oracle assembled from a sharded venue's
// per-shard oracles must be byte-identical to the one-shard venue's —
// counting filters add with saturation, the verification filter ORs, so the
// merge is exact, not approximate.
func TestVenueOracleMergeEquality(t *testing.T) {
	cfg := routerTestConfig()
	ms, _, _ := syntheticCorpus(21, 120, 900, 120)
	r, venueName := shardedFixture(t, cfg, 4, ms, 257)

	blobS, err := r.OracleBlob("")
	if err != nil {
		t.Fatal(err)
	}
	blobV, err := r.OracleBlob(venueName)
	if err != nil {
		t.Fatal(err)
	}
	rawS, err := codec.Gunzip(blobS)
	if err != nil {
		t.Fatal(err)
	}
	rawV, err := codec.Gunzip(blobV)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawS, rawV) {
		t.Fatalf("merged venue oracle differs from unsharded oracle (%d vs %d bytes)", len(rawV), len(rawS))
	}
}

// TestVenuePersistenceRoundTrip: a durable sharded venue recovers its
// topology (meta.json) and every shard's data, continues the venue sequence,
// and keeps answering bit-identically after a reopen.
func TestVenuePersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := routerTestConfig()
	ms, kps, intr := syntheticCorpus(7, 160, 900, 200)
	const venueName = "airport-t2"

	r1 := newTestRouter(t, cfg, map[string]VenueConfig{venueName: {Shards: 3}})
	if err := r1.OpenVenues(dir); err != nil {
		t.Fatal(err)
	}
	half := len(ms) / 2
	if _, err := r1.Ingest(context.Background(), venueName, ms[:half]); err != nil {
		t.Fatal(err)
	}
	before, errBefore := r1.Locate(context.Background(), venueName, kps, intr)
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}

	// The on-disk layout is part of the format contract.
	vdir := filepath.Join(dir, venuesSubdir, venueName)
	if _, err := os.Stat(filepath.Join(vdir, venueMetaFile)); err != nil {
		t.Fatalf("venue meta: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(filepath.Join(vdir, shardDirName(i))); err != nil {
			t.Fatalf("shard dir %d: %v", i, err)
		}
	}

	r2 := newTestRouter(t, cfg, nil)
	if err := r2.OpenVenues(dir); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer r2.Close()
	if n := r2.Len(venueName); n != half {
		t.Fatalf("recovered %d mappings, want %d", n, half)
	}
	after, errAfter := r2.Locate(context.Background(), venueName, kps, intr)
	if (errBefore == nil) != (errAfter == nil) {
		t.Fatalf("pre/post-restart locate errors diverge: %v vs %v", errBefore, errAfter)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("recovered venue answers differently:\n before: %+v\n after:  %+v", before, after)
	}

	// The venue sequence must continue where the venue left off: appending
	// the rest of the corpus must reproduce a one-shard engine over the full
	// corpus, bit for bit.
	if _, err := r2.Ingest(context.Background(), venueName, ms[half:]); err != nil {
		t.Fatal(err)
	}
	single := newTestDB(t, cfg)
	if err := single.Ingest(context.Background(), ms[:half]); err != nil {
		t.Fatal(err)
	}
	if err := single.Ingest(context.Background(), ms[half:]); err != nil {
		t.Fatal(err)
	}
	rs, errS := single.Locate(context.Background(), kps, intr)
	rr, errR := r2.Locate(context.Background(), venueName, kps, intr)
	requireBitIdentical(t, rs, errS, rr, errR)
}

// TestVenueConfigRules pins the topology lifecycle: NewRouter rejects
// invalid venue names, and a first ingest creates a configured venue with
// its topology and any other venue with one shard.
func TestVenueConfigRules(t *testing.T) {
	cfg := routerTestConfig()
	for _, bad := range []string{"", ".hidden", "UPPER", "spa ce", "a/b"} {
		if _, err := NewRouter(cfg, map[string]VenueConfig{bad: {Shards: 2}}); err == nil {
			t.Errorf("NewRouter accepted the invalid venue name %q", bad)
		}
	}
	r := newTestRouter(t, cfg, map[string]VenueConfig{"live": {Shards: 2}})
	ms, _, _ := syntheticCorpus(3, 0, 32, 0)
	for name, want := range map[string]int{"live": 2, "other": 1} {
		if _, err := r.Ingest(context.Background(), name, ms); err != nil {
			t.Fatal(err)
		}
		if got := len(r.lookup(name).shards); got != want {
			t.Errorf("venue %q created with %d shard(s), want %d", name, got, want)
		}
	}
}

// TestOpenVenuesRefusesTopologyMismatch: a venue recorded on disk with one
// shard count is not opened under a topology that names another — its
// mappings are partitioned for the recorded count — and the error names the
// venue and both counts. An agreeing topology and an unconfigured venue open
// as before.
func TestOpenVenuesRefusesTopologyMismatch(t *testing.T) {
	dir := t.TempDir()
	cfg := routerTestConfig()
	ms, _, _ := syntheticCorpus(3, 0, 64, 0)
	recorded := map[string]VenueConfig{"mall": {Shards: 1}, "wide": {Shards: 3}}
	w := newTestRouter(t, cfg, recorded)
	if err := w.OpenVenues(dir); err != nil {
		t.Fatal(err)
	}
	for name := range recorded {
		if _, err := w.Ingest(context.Background(), name, ms); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r := newTestRouter(t, cfg, map[string]VenueConfig{"mall": {Shards: 4}})
	err := r.OpenVenues(dir)
	r.Close()
	if err == nil {
		t.Fatal("a 1-shard venue on disk opened under a 4-shard topology")
	}
	for _, want := range []string{`"mall"`, "4 shard", "records 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}

	for _, topo := range []map[string]VenueConfig{recorded, nil} {
		r := newTestRouter(t, cfg, topo)
		if err := r.OpenVenues(dir); err != nil {
			t.Fatalf("topology %v: %v", topo, err)
		}
		for name, vc := range recorded {
			if got := len(r.lookup(name).shards); got != vc.Shards || r.Len(name) != len(ms) {
				t.Errorf("topology %v: venue %q opened with %d shard(s), %d mappings; want %d, %d", topo, name, got, r.Len(name), vc.Shards, len(ms))
			}
		}
		r.Close()
	}
}
