package server

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"visualprint/internal/pose"
	"visualprint/internal/scene"
	"visualprint/internal/sift"
	"visualprint/internal/testutil"
)

// persistTestConfig is the default configuration with a deterministic pose
// solve.
func persistTestConfig() DatabaseConfig {
	cfg := DefaultDatabaseConfig()
	// The pose optimizer is an anytime search: its wall-clock deadline makes
	// the iteration count timing-dependent. Bit-identical recovery checks
	// need Locate to be a pure function of database state, so run the
	// optimizer to its fixed iteration budget instead.
	cfg.Pose.Deadline = 0
	return cfg
}

// persistTestShard returns r's default shard with the compaction threshold
// shrunk to 1 MB, so tests exercise the background snapshotter without
// megabytes of ingest. Call it before the shard is opened.
func persistTestShard(r *Router) *Database {
	db := r.Default()
	db.compactAt = 1 << 20
	return db
}

// newTestRouter builds an engine over cfg and the venue topology topo.
func newTestRouter(t testing.TB, cfg DatabaseConfig, topo map[string]int) *Router {
	t.Helper()
	r, err := NewRouter(cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// sceneIntrinsics builds pose intrinsics from a scene camera.
func sceneIntrinsics(cam scene.Camera) pose.Intrinsics {
	return pose.Intrinsics{W: cam.W, H: cam.H, FovX: cam.FovX, FovY: cam.FovY()}
}

// queryKeypoints renders one viewpoint of the venue and extracts keypoints
// for Locate.
func queryKeypoints(t testing.TB, w *scene.World) ([]sift.Keypoint, pose.Intrinsics) {
	t.Helper()
	poi := w.POIsOfKind(scene.POIUnique)
	if len(poi) == 0 {
		t.Fatal("venue has no unique POIs")
	}
	cam := scene.CameraFacing(w, poi[0], 3.0, 0.2, -0.05, 200, 150)
	fr, err := scene.Render(w, cam)
	if err != nil {
		t.Fatal(err)
	}
	sc := sift.DefaultConfig()
	sc.ContrastThreshold = 0.02
	kps := sift.Detect(fr.Image, sc)
	if len(kps) < 20 {
		t.Fatalf("only %d query keypoints", len(kps))
	}
	return kps, sceneIntrinsics(cam)
}

// requireIdenticalLocate runs the same query on two engines' default venues
// and requires bit-equal answers (including equal failures).
func requireIdenticalLocate(t *testing.T, a, b *Router, kps []sift.Keypoint, intr pose.Intrinsics) {
	t.Helper()
	ra, errA := a.Locate(context.Background(), "", kps, intr)
	rb, errB := b.Locate(context.Background(), "", kps, intr)
	if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
		t.Fatalf("locate errors diverge: %v vs %v", errA, errB)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("locate results diverge:\n pre-crash: %+v\n recovered: %+v", ra, rb)
	}
	if errA == nil && ra.Matched == 0 {
		t.Fatal("locate matched nothing; test venue too weak to be meaningful")
	}
}

// TestKillAndRestartRecoversIdenticalMap is the headline crash test: ingest
// a venue, drop the process state without any shutdown courtesy (the
// database object is simply abandoned, as a SIGKILL would), reopen the
// directory, and require Locate to answer bit-identically.
func TestKillAndRestartRecoversIdenticalMap(t *testing.T) {
	if testing.Short() {
		t.Skip("wardriving a venue is slow")
	}
	dir := t.TempDir()
	w := testVenue()
	ms := wardriveMappings(t)
	kps, intr := queryKeypoints(t, w)

	r1 := newTestRouter(t, persistTestConfig(), nil)
	db1 := persistTestShard(r1)
	if err := db1.Open(dir); err != nil {
		t.Fatal(err)
	}
	// Several batches so the WAL carries multiple records.
	for i := 0; i < len(ms); i += 700 {
		end := i + 700
		if end > len(ms) {
			end = len(ms)
		}
		if _, err := r1.Ingest(context.Background(), "", ms[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	// NO Close, NO Compact: every acknowledged ingest must already be on
	// disk. db1 is abandoned exactly as a killed process would leave it.
	// (Its background goroutines are reaped after the test — Close at
	// cleanup time adds nothing to disk, every Ingest already returned.)
	t.Cleanup(func() { db1.Close() })

	r2 := newTestRouter(t, persistTestConfig(), nil)
	db2 := persistTestShard(r2)
	if err := db2.Open(dir); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer db2.Close()

	if db1.Len() != db2.Len() {
		t.Fatalf("recovered %d mappings, ingested %d", db2.Len(), db1.Len())
	}
	lo1, hi1, ok1 := publishedBounds(db1)
	lo2, hi2, ok2 := publishedBounds(db2)
	if ok1 != ok2 || lo1 != lo2 || hi1 != hi2 {
		t.Fatalf("bounds diverge: %v %v vs %v %v", lo1, hi1, lo2, hi2)
	}
	if i1, i2 := db1.Stats().OracleInserts, db2.Stats().OracleInserts; i1 != i2 {
		t.Fatalf("oracle inserts diverge: %d vs %d", i1, i2)
	}
	requireIdenticalLocate(t, r1, r2, kps, intr)

	// The uniqueness oracle must rank identically too (it drives client
	// keypoint selection).
	var sels [2][]sift.Keypoint
	for i, db := range []*Database{db1, db2} {
		var err error
		if sels[i], err = db.OracleClone().SelectUnique(kps, 50); err != nil {
			t.Fatal(err)
		}
	}
	sel1, sel2 := sels[0], sels[1]
	if !reflect.DeepEqual(sel1, sel2) {
		t.Fatal("oracle keypoint selection diverges after recovery")
	}
}

// TestRecoveryFromSnapshotPlusTail covers the compacted case: snapshot,
// more ingest, crash, recover = snapshot load + WAL tail replay.
func TestRecoveryFromSnapshotPlusTail(t *testing.T) {
	if testing.Short() {
		t.Skip("wardriving a venue is slow")
	}
	dir := t.TempDir()
	w := testVenue()
	ms := wardriveMappings(t)
	kps, intr := queryKeypoints(t, w)
	half := len(ms) / 2

	r1 := newTestRouter(t, persistTestConfig(), nil)
	db1 := persistTestShard(r1)
	if err := db1.Open(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db1.Close() }) // abandoned mid-test as a crash; reaped after
	if _, err := r1.Ingest(context.Background(), "", ms[:half]); err != nil {
		t.Fatal(err)
	}
	if err := db1.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Ingest(context.Background(), "", ms[half:]); err != nil {
		t.Fatal(err)
	}
	st := db1.Stats()
	if !st.Persistent || st.SnapshotSeq == 0 || st.LastCompactionUnix == 0 {
		t.Fatalf("stats after compaction: %+v", st)
	}

	r2 := newTestRouter(t, persistTestConfig(), nil)
	db2 := persistTestShard(r2)
	if err := db2.Open(dir); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer db2.Close()
	if db1.Len() != db2.Len() {
		t.Fatalf("recovered %d mappings, ingested %d", db2.Len(), db1.Len())
	}
	requireIdenticalLocate(t, r1, r2, kps, intr)
}

// TestCorruptWALTailTruncatedNotFatal garbles the WAL tail and requires
// recovery to keep everything intact before it, warn, and never panic.
func TestCorruptWALTailTruncatedNotFatal(t *testing.T) {
	dir := t.TempDir()
	cfg := persistTestConfig()

	r1 := newTestRouter(t, cfg, nil)
	db1 := persistTestShard(r1)
	if err := db1.Open(dir); err != nil {
		t.Fatal(err)
	}
	ms := make([]Mapping, 50)
	for i := range ms {
		ms[i].Desc[0] = byte(i)
		ms[i].Pos.X = float64(i)
	}
	if _, err := r1.Ingest(context.Background(), "", ms); err != nil {
		t.Fatal(err)
	}
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}

	tearWALTail(t, dir)

	logged := testutil.CaptureLog(t)
	db2 := newTestRouter(t, cfg, nil).Default()
	if err := db2.Open(dir); err != nil {
		t.Fatalf("recovery after tail corruption: %v", err)
	}
	defer db2.Close()
	if db2.Len() != len(ms) {
		t.Fatalf("recovered %d mappings, want %d", db2.Len(), len(ms))
	}
	if !strings.Contains(logged(), "WARN store: truncating wal") {
		t.Fatalf("no truncation warning; got %q", logged())
	}
}

// tearWALTail appends garbage to the newest WAL segment in a shard's
// directory — a torn record from a mid-write crash.
func tearWALTail(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segment: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
}

// TestNamedVenueWarningsReachServerLog: every shard logs through the
// process logger — a named venue's shards as well as the default venue's. A
// venue created on a serving router over a shard directory whose WAL ends
// in a torn record recovers it, and the store's truncation warning lands in
// the process log beside the venue's creation.
func TestNamedVenueWarningsReachServerLog(t *testing.T) {
	cfg := persistTestConfig()
	ctx := context.Background()
	ms := make([]Mapping, 30)
	for i := range ms {
		ms[i].Desc[0] = byte(i)
		ms[i].Pos.X = float64(i)
	}
	// A named venue's shard directory with a torn WAL tail.
	src := t.TempDir()
	w := newTestRouter(t, cfg, nil)
	if err := w.OpenVenues(src); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Ingest(ctx, "mall", ms); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(src, venuesSubdir, "mall", shardDirName(0))
	tearWALTail(t, torn)

	dir := t.TempDir()
	r := newTestRouter(t, cfg, nil)
	if err := r.OpenVenues(dir); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	serveRouter(t, r)
	logged := testutil.CaptureLog(t)
	// No meta.json records the venue, so the next ingest creates it over
	// the torn shard directory.
	if err := os.MkdirAll(filepath.Join(dir, venuesSubdir, "mall"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(torn, filepath.Join(dir, venuesSubdir, "mall", shardDirName(0))); err != nil {
		t.Fatal(err)
	}
	if total, err := r.Ingest(ctx, "mall", ms); err != nil || total != 2*len(ms) {
		t.Fatalf("ingest into the recovered venue: total %d, %v; want %d", total, err, 2*len(ms))
	}
	for _, want := range []string{"WARN store: truncating wal", `INFO server: venue "mall" created (1 shard(s))`} {
		if !strings.Contains(logged(), want) {
			t.Errorf("process log lacks %q; got %q", want, logged())
		}
	}
}

// TestBackgroundCompactionFailureWarns: a background snapshot that cannot
// be written is not fatal, and the process log says why.
func TestBackgroundCompactionFailureWarns(t *testing.T) {
	logged := testutil.CaptureLog(t)
	dir := t.TempDir()
	r := newTestRouter(t, persistTestConfig(), nil)
	db := r.Default()
	if err := db.Open(dir); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := r.Ingest(context.Background(), "", []Mapping{{}}); err != nil {
		t.Fatal(err)
	}
	// The snapshot's temp file goes in the data directory; without one the
	// write fails.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	db.snapKick <- struct{}{}
	const want = "WARN server: background wal compaction: "
	for deadline := time.Now().Add(5 * time.Second); !strings.Contains(logged(), want); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("process log lacks %q; got %q", want, logged())
		}
	}
}

// TestDeltaRingResetWarns: an epoch step the delta encoder refuses clears
// the oracle delta ring (clients fall back to full syncs) and says so in
// the process log.
func TestDeltaRingResetWarns(t *testing.T) {
	logged := testutil.CaptureLog(t)
	r := newTestRouter(t, persistTestConfig(), nil)
	db := r.Default()
	empty := db.cur.Load()
	if _, err := r.Ingest(context.Background(), "", []Mapping{{}}); err != nil {
		t.Fatal(err)
	}
	full := db.cur.Load()
	db.mu.Lock()
	ring := len(db.deltaRing)
	// A step backwards in inserts is not a delta odelta can encode.
	db.recordDeltaLocked(full, empty)
	after := len(db.deltaRing)
	db.mu.Unlock()
	if ring == 0 || after != 0 {
		t.Errorf("delta ring %d records before the failed step, %d after; want some, then none", ring, after)
	}
	if want := "WARN server: oracle delta for epoch 0 failed"; !strings.Contains(logged(), want) || !strings.Contains(logged(), "delta ring reset") {
		t.Errorf("process log lacks %q ... delta ring reset; got %q", want, logged())
	}
}

func TestOpenRequiresEmptyDatabase(t *testing.T) {
	r := newTestRouter(t, persistTestConfig(), nil)
	if _, err := r.Ingest(context.Background(), "", []Mapping{{}}); err != nil {
		t.Fatal(err)
	}
	if err := r.Default().Open(t.TempDir()); err == nil {
		t.Fatal("Open on a non-empty database succeeded")
	}
}

func TestDoubleOpenFails(t *testing.T) {
	db := persistTestShard(newTestRouter(t, persistTestConfig(), nil))
	if err := db.Open(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Open(t.TempDir()); err == nil {
		t.Fatal("second Open succeeded")
	}
}

func TestCloseIsIdempotentAndInMemoryNoop(t *testing.T) {
	r := newTestRouter(t, persistTestConfig(), nil)
	db := persistTestShard(r)
	if err := db.Close(); err != nil { // in-memory: no-op
		t.Fatal(err)
	}
	if err := db.Open(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// A closed durable database keeps serving in-memory.
	if _, err := r.Ingest(context.Background(), "", []Mapping{{}}); err != nil {
		t.Fatal(err)
	}
}

// TestBackgroundCompaction drives the WAL past a tiny threshold and waits
// for the snapshotter to fold it.
func TestBackgroundCompaction(t *testing.T) {
	dir := t.TempDir()
	r := newTestRouter(t, persistTestConfig(), nil)
	db := r.Default()
	db.compactAt = 4 << 10
	if err := db.Open(dir); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ms := make([]Mapping, 20)
	for round := 0; round < 40; round++ {
		for i := range ms {
			ms[i].Desc[0], ms[i].Desc[1] = byte(round), byte(i)
			ms[i].Pos.X = float64(round*100 + i)
		}
		if _, err := r.Ingest(context.Background(), "", ms); err != nil {
			t.Fatal(err)
		}
		if db.Stats().SnapshotSeq > 0 {
			return // snapshotter fired
		}
	}
	// The kick is asynchronous; settle via an explicit Compact only if the
	// background one genuinely never ran.
	t.Fatalf("background snapshotter never compacted: stats %+v", db.Stats())
}

// TestStatsRPCExtendedFields checks the satellite: database size, oracle
// inserts and persistence state travel through the Stats RPC.
func TestStatsRPCExtendedFields(t *testing.T) {
	testutil.SilenceLog(t)
	dir := t.TempDir()
	r := newTestRouter(t, persistTestConfig(), nil)
	if err := r.OpenVenues(dir); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, r)
	defer s.Close()
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ms := make([]Mapping, 25)
	for i := range ms {
		ms[i].Desc[0] = byte(i)
		ms[i].Pos.X = float64(i)
	}
	if _, err := c.Ingest(context.Background(), ms); err != nil {
		t.Fatal(err)
	}
	st, err := c.StatsFull(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Mappings != 25 {
		t.Errorf("Mappings = %d", st.Mappings)
	}
	if st.OracleInserts != 25 {
		t.Errorf("OracleInserts = %d", st.OracleInserts)
	}
	if st.DatabaseBytes == 0 {
		t.Error("DatabaseBytes = 0")
	}
	if !st.Persistent {
		t.Error("Persistent = false on a durable database")
	}
	if st.WALBytes == 0 {
		t.Error("WALBytes = 0 after ingest")
	}
	// Count-only Stats stays compatible.
	n, err := c.Stats(context.Background())
	if err != nil || n != 25 {
		t.Errorf("Stats = %d, %v", n, err)
	}
}
