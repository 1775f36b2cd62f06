package server

// Tests for the copy-on-write read views (view.go): every reader must observe
// a complete published view — never a partially built index — for as long as
// it holds it, and results must be bit-identical to a serialized run of the
// same batches. All must stay -race clean; the race detector is what proves
// that a reader of an older view never touches what later batches append to
// the shared storage.

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"visualprint/internal/mathx"
)

// publishedBounds reads the bounding box off the published view, the way
// locateShards does for every shard it loads.
func publishedBounds(db *Database) (lo, hi mathx.Vec3, ok bool) {
	v := db.cur.Load()
	return v.lo, v.hi, v.hasBounds
}

// resultBits flattens a LocateResult into comparable Float64bits, the
// bit-identity currency the repo's equivalence tests use (== on floats
// would conflate 0 and -0 and choke on NaN).
func resultBits(r LocateResult) [6]uint64 {
	return [6]uint64{
		math.Float64bits(r.Position.X),
		math.Float64bits(r.Position.Y),
		math.Float64bits(r.Position.Z),
		math.Float64bits(r.Yaw),
		math.Float64bits(r.Residual),
		uint64(r.Matched),
	}
}

// TestConcurrentIngestLocateSnapshots drives Ingest batches against a fleet
// of lock-free readers. Each reader iteration loads the current view and
// asserts it is internally complete (its own index, positions, seqs and
// oracle agree on the record count, which sits exactly on a batch boundary),
// then runs a Locate whose result must be Float64bits-identical to the golden
// result of a serialized locked run over the same prefix of batches. Run
// under -race this is the snapshot-consistency proof for copy-on-write
// publishing on one shard; a second arm runs the same Locates against a
// 4-shard venue, where the guarantee is per shard (see below).
func TestConcurrentIngestLocateSnapshots(t *testing.T) {
	const (
		batches   = 8
		batchSize = 22
		readers   = 4
	)
	// One deterministic mapping stream, sliced into batches.
	_, ms := syntheticDB(t, 11, 96, 80)
	if len(ms) < batches*batchSize {
		t.Fatalf("need %d mappings, have %d", batches*batchSize, len(ms))
	}
	ms = ms[:batches*batchSize]
	kps := queryFromMappings(ms, 0, 20) // descriptors from the first batch

	// Golden: serialized databases holding each prefix of batches, queried
	// with no concurrency. golden[i] is the expected result (or error
	// string) after i+1 batches; an empty database returns ErrEmptyDatabase.
	type outcome struct {
		bits [6]uint64
		err  string
	}
	goldenFor := func(nBatches int) outcome {
		cfg := DefaultDatabaseConfig()
		cfg.Pose.Deadline = 0
		gdb, err := NewDatabase(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < nBatches; b++ {
			if err := gdb.Ingest(context.Background(), ms[b*batchSize:(b+1)*batchSize]); err != nil {
				t.Fatal(err)
			}
		}
		res, err := gdb.Locate(context.Background(), kps, testIntrinsics())
		if err != nil {
			return outcome{err: err.Error()}
		}
		return outcome{bits: resultBits(res)}
	}
	golden := make(map[int]outcome, batches+1)
	for i := 0; i <= batches; i++ {
		golden[i] = goldenFor(i)
	}

	cfg := DefaultDatabaseConfig()
	cfg.Pose.Deadline = 0
	db, err := NewDatabase(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg       sync.WaitGroup
		done     atomic.Bool
		checks   atomic.Int64
		failOnce sync.Once
		failMsg  atomic.Value
	)
	fail := func(msg string) {
		failOnce.Do(func() { failMsg.Store(msg) })
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				// Completeness: a loaded view must be a published batch
				// boundary with its own lengths in agreement — a torn
				// generation would disagree on at least one count. (The
				// view's lengths, never the shared tables, which later
				// batches keep extending.)
				v := db.cur.Load()
				n := len(v.positions)
				if n%batchSize != 0 || n > batches*batchSize {
					fail("loaded view exposes a mid-batch state")
					return
				}
				if v.index.Len() != n || len(v.seqs) != n || v.oracle.Inserts() != uint64(n) {
					fail("loaded view has index/positions/seqs/oracle out of sync")
					return
				}

				res, err := db.Locate(context.Background(), kps, testIntrinsics())
				got := outcome{}
				if err != nil {
					got.err = err.Error()
				} else {
					got.bits = resultBits(res)
				}
				matched := false
				for i := 0; i <= batches; i++ {
					if golden[i] == got {
						matched = true
						break
					}
				}
				if !matched {
					fail("concurrent Locate result matches no serialized prefix")
					return
				}
				checks.Add(1)
			}
		}()
	}
	for b := 0; b < batches; b++ {
		if err := db.Ingest(context.Background(), ms[b*batchSize:(b+1)*batchSize]); err != nil {
			t.Fatal(err)
		}
	}
	// Let the readers chew on the final state before stopping them.
	deadline := time.Now().Add(300 * time.Millisecond)
	for checks.Load() < int64(readers*2) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	done.Store(true)
	wg.Wait()
	if msg := failMsg.Load(); msg != nil {
		t.Fatal(msg.(string))
	}
	if checks.Load() == 0 {
		t.Fatal("readers completed no checked Locates")
	}

	// The settled concurrent database must answer exactly like the full
	// serialized run.
	res, err := db.Locate(context.Background(), kps, testIntrinsics())
	if err != nil {
		t.Fatalf("final locate: %v", err)
	}
	want := golden[batches]
	if want.err != "" || resultBits(res) != want.bits {
		t.Fatalf("settled result %+v not bit-identical to serialized run %+v", resultBits(res), want)
	}

	// Four shards, the same body (locateShards) over four views. Each view is
	// a complete generation of its shard, but the four are loaded one after
	// another, not as a venue-wide snapshot: a Locate racing an ingest
	// may hold the batch on some shards only, a state no serialized prefix
	// has. So the racing readers are held to "a pose or a typed sentinel" —
	// and to the race detector — while the writer, between batches (nothing
	// publishing), must read exactly the one-shard golden of that prefix.
	const quad = "quad"
	rt := newTestRouter(t, cfg, map[string]VenueConfig{quad: {Shards: 4}})
	locateQuad := func() outcome {
		res, err := rt.Locate(context.Background(), quad, kps, testIntrinsics())
		if err != nil {
			return outcome{err: err.Error()}
		}
		return outcome{bits: resultBits(res)}
	}
	done.Store(false)
	checks.Store(0)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				_, err := rt.Locate(context.Background(), quad, kps, testIntrinsics())
				if err != nil && !errors.Is(err, ErrEmptyDatabase) && !errors.Is(err, ErrTooFewMatches) && !errors.Is(err, ErrNoConsensus) {
					fail("4-shard Locate racing ingest: " + err.Error())
					return
				}
				checks.Add(1)
			}
		}()
	}
	for b := 0; b < batches; b++ {
		if got := locateQuad(); got != golden[b] {
			t.Errorf("4 shards, %d batches, quiesced: %+v, one-shard golden %+v", b, got, golden[b])
		}
		if _, err := rt.Ingest(context.Background(), quad, ms[b*batchSize:(b+1)*batchSize]); err != nil {
			t.Fatal(err)
		}
	}
	if got := locateQuad(); got != golden[batches] {
		t.Errorf("4 shards, settled: %+v, one-shard golden %+v", got, golden[batches])
	}
	done.Store(true)
	wg.Wait()
	if msg := failMsg.Load(); msg != nil {
		t.Fatal(msg.(string))
	}
	if checks.Load() == 0 {
		t.Fatal("4-shard readers completed no Locates")
	}
}

// TestBatchedIngestMatchesSingleBatch pins the extension invariant: a
// database grown through many small batches — each one a new view extending
// the last over the shared append-only storage, with its own oracle copy —
// answers Float64bits-identically to one built in a single batch.
func TestBatchedIngestMatchesSingleBatch(t *testing.T) {
	_, ms := syntheticDB(t, 23, 64, 48)
	cfg := DefaultDatabaseConfig()
	cfg.Pose.Deadline = 0

	batched, err := NewDatabase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(ms); i += 7 { // odd batch size: exercises uneven boundaries
		end := min(i+7, len(ms))
		if err := batched.Ingest(context.Background(), ms[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	single, err := NewDatabase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := single.Ingest(context.Background(), ms); err != nil {
		t.Fatal(err)
	}

	for _, q := range []struct{ from, n int }{{0, 40}, {20, 64}, {60, 52}} {
		kps := queryFromMappings(ms, q.from, q.n)
		rb, errB := batched.Locate(context.Background(), kps, testIntrinsics())
		rs, errS := single.Locate(context.Background(), kps, testIntrinsics())
		if (errB == nil) != (errS == nil) || (errB != nil && errB.Error() != errS.Error()) {
			t.Fatalf("query %+v: batched err %v, single err %v", q, errB, errS)
		}
		if errB == nil && resultBits(rb) != resultBits(rs) {
			t.Fatalf("query %+v: batched %+v != single %+v", q, rb, rs)
		}
	}
	if batched.Len() != single.Len() {
		t.Fatalf("batched holds %d mappings, single %d", batched.Len(), single.Len())
	}
}

// TestHeldViewOutlivesLaterBatches: a view loaded after k batches stays a
// complete generation for as long as it is held. The remaining batches
// ingest from another goroutine without waiting on it — there is no grace
// period — and the Locate body over the held view (gather and solve over
// []*dbView{v}) answers Float64bits-equal to a serialized database of exactly
// k batches, both while the writer runs and after it is done.
func TestHeldViewOutlivesLaterBatches(t *testing.T) {
	const batches, batchSize, k = 8, 22, 3
	_, ms := syntheticDB(t, 11, 96, 80)
	ms = ms[:batches*batchSize]
	kps := queryFromMappings(ms, 0, 20)
	ctx := context.Background()
	cfg := DefaultDatabaseConfig()
	cfg.Pose.Deadline = 0
	build := func() *Database {
		db, err := NewDatabase(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Ingest(ctx, ms[:k*batchSize]); err != nil {
			t.Fatal(err)
		}
		return db
	}
	golden, err := build().Locate(ctx, kps, testIntrinsics())
	if err != nil {
		t.Fatal(err)
	}
	want := resultBits(golden)

	db := build()
	v := db.cur.Load()
	locateHeld := func() [6]uint64 {
		cands, err := gather(ctx, []*dbView{v}, kps, neighborsPerKeypoint, maxMatchDistSq, runtime.GOMAXPROCS(0))
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := solve(ctx, db, cands, v.lo, v.hi, testIntrinsics(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return resultBits(res)
	}
	done := make(chan error, 1)
	go func() {
		for b := k; b < batches; b++ {
			if err := db.Ingest(ctx, ms[b*batchSize:(b+1)*batchSize]); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	if got := locateHeld(); got != want {
		t.Errorf("held view while later batches ingest: %v, serialized %d batches %v", got, k, want)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ingest blocked behind a held view")
	}
	if n := db.Len(); n != batches*batchSize {
		t.Fatalf("database holds %d mappings after every batch, want %d", n, batches*batchSize)
	}
	if got := locateHeld(); got != want {
		t.Errorf("held view after later batches: %v, serialized %d batches %v", got, k, want)
	}
	n := len(v.positions)
	if n != k*batchSize || v.index.Len() != n || len(v.seqs) != n || v.oracle.Inserts() != uint64(n) {
		t.Fatalf("held view lengths moved: positions %d, index %d, seqs %d, oracle %d; want %d",
			n, v.index.Len(), len(v.seqs), v.oracle.Inserts(), k*batchSize)
	}
}

// TestLocateLockFreeUnderWriteLock is the deterministic lock-freedom proof:
// with db.mu exclusively held (as a publishing ingest or a recovery holds
// it), Locate must still complete — it reads the published view and never
// touches the mutex.
func TestLocateLockFreeUnderWriteLock(t *testing.T) {
	db, ms := syntheticDB(t, 7, 48, 40)
	kps := queryFromMappings(ms, 0, 32)

	db.mu.Lock()
	defer db.mu.Unlock()
	type reply struct {
		res LocateResult
		err error
	}
	ch := make(chan reply, 1)
	go func() {
		res, err := db.Locate(context.Background(), kps, testIntrinsics())
		ch <- reply{res, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("locate under held write lock: %v", r.err)
		}
		if r.res.Matched < 3 {
			t.Fatalf("locate under held write lock matched only %d", r.res.Matched)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Locate blocked behind db.mu — the read path is not lock-free")
	}
}

// TestStatsAndOracleReadsUnderWriteLock extends the lock-freedom proof to
// the other read surfaces that stay off db.mu: Len, the published view's
// bounds and OracleClone (the base of all oracle scoring) must all complete
// while the write lock is held. (Stats reads its store half under mu, so it
// is checked once the lock is released.)
func TestStatsAndOracleReadsUnderWriteLock(t *testing.T) {
	db, ms := syntheticDB(t, 7, 48, 40)

	db.mu.Lock()
	done := make(chan error, 1)
	go func() {
		if n := db.Len(); n != len(ms) {
			done <- errMismatch("Len", n, len(ms))
			return
		}
		if _, _, ok := publishedBounds(db); !ok {
			done <- errMismatch("bounds ok", 0, 1)
			return
		}
		o := db.OracleClone()
		if _, err := o.Uniqueness(ms[0].Desc[:]); err != nil {
			done <- err
			return
		}
		done <- nil
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		db.mu.Unlock()
		t.Fatal("read surface blocked behind db.mu")
	}
	db.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	// Stats takes mu.RLock for its store half, so it must be checked with
	// the lock released.
	s := db.Stats()
	if s.Mappings != uint64(len(ms)) {
		t.Fatalf("Stats.Mappings = %d, want %d", s.Mappings, len(ms))
	}
}

type errMismatchT struct {
	what      string
	got, want int
}

func (e errMismatchT) Error() string {
	return e.what + " mismatch"
}

func errMismatch(what string, got, want int) error {
	return errMismatchT{what, got, want}
}
