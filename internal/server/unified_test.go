package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"visualprint/internal/mathx"
	"visualprint/internal/obs"
	"visualprint/internal/store"
)

// Tests of the unified engine: one route per operation whatever the venue,
// only Ingest creating venues, and the retired untagged on-disk format.

// serveRouter serves r on a loopback listener for the test's duration.
func serveRouter(t testing.TB, r *Router) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, r)
	s.Log = nil
	t.Cleanup(func() { s.Close() })
	return s
}

// TestReadRPCsNeverCreateVenues: oracle syncs and subscriptions naming
// venues that do not exist answer (empty oracle at version (0, 0), an ack at
// epoch 0) without building an engine, registering a venue or touching the
// data directory — only Ingest creates a venue.
func TestReadRPCsNeverCreateVenues(t *testing.T) {
	cfg := routerTestConfig()
	// A small oracle keeps 1,000 empty-blob gzips cheap.
	cfg.Oracle.CountersPerTable = 1 << 8
	cfg.Oracle.VerifyBits = 1 << 10
	dir := t.TempDir()
	r := newTestRouter(t, cfg)
	if err := r.OpenVenues(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	s := serveRouter(t, r)

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Minute))
	if err := writePreamble(conn); err != nil {
		t.Fatal(err)
	}
	const names = 1000
	nothing := encodeOracleVersion(^uint64(0), ^uint64(0))
	for i := 0; i < names; i++ {
		h := reqHeader{venue: fmt.Sprintf("ghost-%d", i)}
		if _, err := writeFrame(conn, uint32(2*i), msgOracleSync, h, nothing); err != nil {
			t.Fatal(err)
		}
		if _, typ, resp, err := readFrame(conn); err != nil || typ != msgOracleSyncFull || binary.LittleEndian.Uint64(resp) != 0 {
			t.Fatalf("sync %d: type %d, err %v, want a full blob at epoch 0", i, typ, err)
		}
		// The subscription stays parked; its ack is the only frame it sends.
		if _, err := writeFrame(conn, uint32(2*i+1), msgSubscribeOracle, h, make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
		_, typ, resp, err := readFrame(conn)
		if err != nil || typ != msgOracleEpoch {
			t.Fatalf("subscribe %d: type %d, err %v, want an epoch ack", i, typ, err)
		}
		if e, ins, err := decodeOracleVersion(resp); err != nil || e != 0 || ins != 0 {
			t.Fatalf("subscribe %d acked version (%d, %d), %v; want (0, 0)", i, e, ins, err)
		}
	}
	if got := r.Venues(); len(got) != 0 {
		t.Fatalf("read RPCs created %d venue(s): %v", len(got), got)
	}
	rep := s.Registry().Report()
	if g := rep.Gauges["venues"]; g != 0 {
		t.Fatalf("venues gauge = %d, want 0", g)
	}
	if g := rep.Gauges["oracle_subscribers"]; g != names {
		t.Fatalf("oracle_subscribers = %d, want %d parked streams", g, names)
	}
	if _, err := os.Stat(filepath.Join(dir, venuesSubdir)); !os.IsNotExist(err) {
		t.Fatalf("read RPCs left a venues directory behind (stat err %v)", err)
	}
	if st := r.Stats("ghost-1"); st != (DBStats{}) {
		t.Fatalf("unknown venue stats = %+v, want zeros", st)
	}
}

// TestSyncBeforeFirstIngest: a client may download a venue's oracle and
// subscribe to it before the venue exists. It holds the empty oracle at
// version (0, 0); the venue's first ingest wakes the parked subscription, and
// the delta chain from (0, 0) lands byte-equal to the server's oracle.
func TestSyncBeforeFirstIngest(t *testing.T) {
	r := newTestRouter(t, routerTestConfig())
	s := serveRouter(t, r)
	c, err := Dial(s.Addr().String(), WithLogger(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const venueName = "late"

	h := c.Venue(venueName).OracleSync()
	updates, err := h.Watch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	first := <-updates
	if first.Err != nil || first.Epoch != 0 || first.Oracle.Inserts() != 0 {
		t.Fatalf("pre-ingest update = (epoch %d, err %v), want the empty oracle at epoch 0", first.Epoch, first.Err)
	}
	if len(r.Venues()) != 0 {
		t.Fatalf("watching created the venue: %v", r.Venues())
	}

	ms, _, _ := syntheticCorpus(5, 0, 40, 0)
	if _, err := r.Ingest(ctx, venueName, ms); err != nil {
		t.Fatal(err)
	}
	second := <-updates
	if second.Err != nil || second.Epoch != 1 || second.Inserts != uint64(len(ms)) {
		t.Fatalf("post-ingest update = (epoch %d, inserts %d, err %v), want (1, %d)", second.Epoch, second.Inserts, second.Err, len(ms))
	}
	want, err := r.Oracle(venueName)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oracleBytes(t, second.Oracle), oracleBytes(t, want)) {
		t.Fatal("oracle synced from (0, 0) differs from the server's")
	}
	if rep := s.Registry().Report(); rep.Counters["oracle_syncs_delta"] != 1 || rep.Counters["oracle_syncs_full"] != 1 {
		t.Fatalf("syncs answered %d delta / %d full, want the empty blob then a delta chain from (0, 0)",
			rep.Counters["oracle_syncs_delta"], rep.Counters["oracle_syncs_full"])
	}
}

// TestIngestLockNotHeldAcrossDurabilityWait: a venue's ingest lock covers the
// stamping and the apply, not the wait that follows. With every shard's ack
// withheld by a semi-sync control block, a second batch must still be applied
// while the first is waiting — on the default venue and on a sharded one
// alike.
func TestIngestLockNotHeldAcrossDurabilityWait(t *testing.T) {
	for _, tc := range []struct {
		venue  string
		shards int
	}{{"", 1}, {"wide", 4}} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			r := newTestRouter(t, routerTestConfig())
			if tc.venue != "" {
				if err := r.ConfigureVenue(tc.venue, VenueConfig{Shards: tc.shards}); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.OpenVenues(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			ms, _, _ := syntheticCorpus(9, 0, 64, 0)
			ctx := context.Background()
			if _, err := r.Ingest(ctx, tc.venue, ms); err != nil { // creates the venue
				t.Fatal(err)
			}
			var blocks []*ReplState
			for _, sh := range r.lookup(tc.venue).shards {
				rs := NewReplState(sh, ReplConfig{Self: "primary", MinSyncReplicas: 1, SyncTimeout: time.Minute})
				rs.SetLogger(obs.Discard)
				blocks = append(blocks, rs)
			}
			errc := make(chan error, 2)
			for i := 0; i < 2; i++ {
				go func() {
					_, err := r.Ingest(ctx, tc.venue, ms)
					errc <- err
				}()
			}
			deadline := time.Now().Add(30 * time.Second)
			for r.Len(tc.venue) != 3*len(ms) {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d mappings applied: the second batch is stuck behind the first one's replica wait", r.Len(tc.venue), 3*len(ms))
				}
				time.Sleep(time.Millisecond)
			}
			select {
			case err := <-errc:
				t.Fatalf("an ingest returned (%v) before any replica acknowledged it", err)
			default:
			}
			for _, rs := range blocks {
				rs.mu.Lock()
				rs.recordAckLocked("replica", rs.db.StoreSeq())
				rs.mu.Unlock()
			}
			for i := 0; i < 2; i++ {
				if err := <-errc; err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestConcurrentDurableIngestsShareGroupCommits: concurrent durable ingests
// into the default venue and into a sharded named venue complete with fewer
// WAL fsyncs than ingests — the ingest lock does not cover the fsync, so
// batches reserved while the committer is busy share its next sync. Whether
// two reservations overlap one fsync is up to the scheduler and the disk, so
// the test runs rounds until it has seen a shared commit
// (TestIngestLockNotHeldAcrossDurabilityWait proves the mechanism
// deterministically).
func TestConcurrentDurableIngestsShareGroupCommits(t *testing.T) {
	cfg := routerTestConfig()
	cfg.OracleDeltaWindow = -1 // keep the locked apply short next to the fsync
	r := newTestRouter(t, cfg)
	const venueName = "wide"
	if err := r.ConfigureVenue(venueName, VenueConfig{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	if err := r.OpenVenues(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	fsyncNs := r.EnableObs().Histogram("wal_fsync_ns")
	const workers, perWorker, rounds = 16, 10, 40
	for _, name := range []string{"", venueName} {
		before := fsyncNs.Count()
		var ingests, fsyncs uint64
		for round := 0; round < rounds && fsyncs >= ingests; round++ {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						// One mapping, one spatial cell: every batch lands on
						// the same shard's log.
						m := Mapping{Pos: mathx.Vec3{X: 1, Y: 1, Z: 1}}
						m.Desc[0], m.Desc[1], m.Desc[2] = byte(round), byte(w), byte(i)
						if _, err := r.Ingest(context.Background(), name, []Mapping{m}); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			ingests += workers * perWorker
			fsyncs = fsyncNs.Count() - before
		}
		t.Logf("venue %q: %d ingests shared %d fsyncs", name, ingests, fsyncs)
		if fsyncs >= ingests {
			if fsyncNs.Quantile(0.5) < int64(20*time.Microsecond) {
				t.Skipf("fsync takes %d ns here: too fast for two reservations to ever overlap one", fsyncNs.Quantile(0.5))
			}
			t.Errorf("venue %q: %d fsyncs for %d concurrent ingests — never a shared commit", name, fsyncs, ingests)
		}
	}
}

// TestRestartContinuesEverySequence: a server with a default and a sharded
// named venue is abandoned without any shutdown courtesy; the reopened engine
// continues both venues' sequences where they stopped (the default venue's at
// MaxSeq+1) and answers bit-identically to an engine that never restarted.
func TestRestartContinuesEverySequence(t *testing.T) {
	dir := t.TempDir()
	cfg := routerTestConfig()
	ms, kps, intr := syntheticCorpus(7, 160, 900, 200)
	const venueName = "mall"
	half := len(ms) / 2
	ctx := context.Background()
	open := func(dir string) *Router {
		r := newTestRouter(t, cfg)
		if err := r.ConfigureVenue(venueName, VenueConfig{Shards: 3}); err != nil {
			t.Fatal(err)
		}
		if dir != "" {
			if err := r.OpenVenues(dir); err != nil {
				t.Fatal(err)
			}
		}
		t.Cleanup(func() { r.Close() })
		return r
	}
	ingest := func(r *Router, batch []Mapping) {
		for _, name := range []string{"", venueName} {
			if _, err := r.Ingest(ctx, name, batch); err != nil {
				t.Fatal(err)
			}
		}
	}

	killed := open(dir)
	ingest(killed, ms[:half]) // no Close, no Compact: abandoned as a SIGKILL would
	restarted := open(dir)
	if got := restarted.Default().MaxSeq(); got != uint64(half) {
		t.Fatalf("default venue recovered MaxSeq %d, want %d", got, half)
	}
	ingest(restarted, ms[half:])
	if got := restarted.Default().MaxSeq(); got != uint64(len(ms)) {
		t.Fatalf("default venue MaxSeq %d after the second half, want %d (sequence continued at MaxSeq+1)", got, len(ms))
	}

	reference := open("")
	ingest(reference, ms[:half])
	ingest(reference, ms[half:])
	for _, name := range []string{"", venueName} {
		want, errW := reference.Locate(ctx, name, kps, intr)
		got, errG := restarted.Locate(ctx, name, kps, intr)
		requireBitIdentical(t, want, errW, got, errG)
	}
}

// TestUntaggedOnDiskFormatRefused: data directories written by a
// non-replicated server before the engines were unified — a VPDB1 snapshot,
// or a WAL of 152-byte untagged entries — fail to open loudly and are never
// reinterpreted.
func TestUntaggedOnDiskFormatRefused(t *testing.T) {
	cfg := routerTestConfig()
	ms, _, _ := syntheticCorpus(3, 0, 20, 0)
	// build writes one untagged WAL record and, when snapshot is set, folds
	// it into a snapshot in the retired layout.
	build := func(t *testing.T, snapshot bool) string {
		dir := t.TempDir()
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if err := st.Recover(func(io.Reader) error { return nil }, func([]byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if err := st.Append(encodeMappings(ms)).Wait(); err != nil {
			t.Fatal(err)
		}
		if !snapshot {
			return dir
		}
		v, err := newEmptyView(cfg)
		if err != nil {
			t.Fatal(err)
		}
		seqs := make([]uint64, len(ms))
		if err := v.apply(ms, seqs); err != nil {
			t.Fatal(err)
		}
		err = st.Snapshot(func(w io.Writer) error {
			io.WriteString(w, "VPDB1\x00\x00\x00")
			v.index.WriteTo(w)
			binary.Write(w, binary.LittleEndian, uint64(len(v.positions)))
			binary.Write(w, binary.LittleEndian, v.positions)
			binary.Write(w, binary.LittleEndian, byte(1))
			binary.Write(w, binary.LittleEndian, []mathx.Vec3{v.lo, v.hi})
			_, err := v.oracle.WriteTo(w)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return dir
	}
	for _, tc := range []struct {
		name     string
		snapshot bool
		want     string
	}{
		{"snapshot", true, `bad database snapshot magic "VPDB1\x00\x00\x00"`},
		{"wal-only", false, fmt.Sprintf("seq ingest payload %d bytes, want %d", len(ms)*mappingWireSize, len(ms)*seqMappingWireSize)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newTestRouter(t, cfg)
			err := r.OpenVenues(build(t, tc.snapshot))
			if err == nil {
				r.Close()
				t.Fatal("a pre-unification data directory opened")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("open failed with %q, want it to name %q", err, tc.want)
			}
			if n := r.Len(""); n != 0 {
				t.Fatalf("refused directory left %d mappings behind", n)
			}
		})
	}
	if mappingWireSize != 152 || seqMappingWireSize != 160 {
		t.Fatalf("record sizes moved (%d, %d): the length check no longer separates the formats as documented", mappingWireSize, seqMappingWireSize)
	}
}
