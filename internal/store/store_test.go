package store

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"visualprint/internal/obs"
	"visualprint/internal/testutil"
)

// logCapture reads the process log captured for one test, so tests can
// assert on recovery warnings.
type logCapture func() string

func captureLog(t *testing.T) logCapture { return logCapture(testutil.CaptureLog(t)) }

func (l logCapture) contains(sub string) bool { return strings.Contains(l(), sub) }

// openAndRecover opens dir and replays it into a slice of record payloads,
// also returning any snapshot payload seen.
func openAndRecover(t *testing.T, dir string) (*Store, []byte, [][]byte) {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var snap []byte
	var recs [][]byte
	err = s.Recover(
		func(r io.Reader) error {
			var err error
			snap, err = io.ReadAll(r)
			return err
		},
		func(p []byte) error {
			recs = append(recs, append([]byte(nil), p...))
			return nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s, snap, recs
}

func appendAll(t *testing.T, s *Store, payloads ...string) {
	t.Helper()
	var commits []*Commit
	for _, p := range payloads {
		commits = append(commits, s.Append([]byte(p)))
	}
	for i, c := range commits {
		if err := c.Wait(); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func recordStrings(recs [][]byte) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = string(r)
	}
	return out
}

func TestEmptyDirStartsEmpty(t *testing.T) {
	dir := t.TempDir()
	s, snap, recs := openAndRecover(t, dir)
	if snap != nil || len(recs) != 0 {
		t.Fatalf("fresh dir recovered snap=%v recs=%v", snap, recs)
	}
	if s.Seq() != 0 || s.HasSnapshot() {
		t.Fatalf("fresh dir: seq=%d hasSnap=%v", s.Seq(), s.HasSnapshot())
	}
	appendAll(t, s, "a", "b", "c")
	if s.Seq() != 3 {
		t.Fatalf("seq = %d, want 3", s.Seq())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, snap, recs := openAndRecover(t, dir)
	defer s2.Close()
	if snap != nil {
		t.Fatalf("unexpected snapshot")
	}
	if got := recordStrings(recs); len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("replayed %v", got)
	}
	if s2.Seq() != 3 {
		t.Fatalf("seq after reopen = %d", s2.Seq())
	}
}

func TestSnapshotWithNoWALTail(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := openAndRecover(t, dir)
	appendAll(t, s, "a", "b")
	if err := s.Snapshot(func(w io.Writer) error {
		_, err := w.Write([]byte("STATE-AB"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if s.SnapshotSeq() != 2 || !s.HasSnapshot() {
		t.Fatalf("snapSeq=%d hasSnap=%v", s.SnapshotSeq(), s.HasSnapshot())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, snap, recs := openAndRecover(t, dir)
	defer s2.Close()
	if string(snap) != "STATE-AB" {
		t.Fatalf("snapshot payload %q", snap)
	}
	if len(recs) != 0 {
		t.Fatalf("expected no tail records, got %v", recordStrings(recs))
	}
	if s2.Seq() != 2 || s2.SnapshotSeq() != 2 {
		t.Fatalf("seq=%d snapSeq=%d", s2.Seq(), s2.SnapshotSeq())
	}
	if s2.LastCompaction().IsZero() {
		t.Fatal("LastCompaction zero after recovering a snapshot")
	}
}

func TestSnapshotPlusTailReplay(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := openAndRecover(t, dir)
	appendAll(t, s, "a", "b")
	if err := s.Snapshot(func(w io.Writer) error {
		_, err := w.Write([]byte("STATE-AB"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "c", "d", "e")
	s.Close()

	s2, snap, recs := openAndRecover(t, dir)
	defer s2.Close()
	if string(snap) != "STATE-AB" {
		t.Fatalf("snapshot payload %q", snap)
	}
	if got := recordStrings(recs); len(got) != 3 || got[0] != "c" || got[2] != "e" {
		t.Fatalf("tail %v", got)
	}
	if s2.Seq() != 5 {
		t.Fatalf("seq = %d", s2.Seq())
	}
}

// activeSegment returns the path of the newest WAL segment in dir.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var best string
	var bestSeq uint64
	for _, e := range entries {
		if seq, ok := parseSegmentName(e.Name()); ok && (best == "" || seq >= bestSeq) {
			best, bestSeq = filepath.Join(dir, e.Name()), seq
		}
	}
	if best == "" {
		t.Fatal("no wal segment found")
	}
	return best
}

func TestTornTailRecordIsTruncated(t *testing.T) {
	dir := t.TempDir()
	lc := captureLog(t)
	s, _, _ := openAndRecover(t, dir)
	appendAll(t, s, "aaaa", "bbbb", "cccc")
	s.Close()

	// Tear the final record: drop its last byte.
	seg := activeSegment(t, dir)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-1); err != nil {
		t.Fatal(err)
	}

	s2, _, recs := openAndRecover(t, dir)
	if got := recordStrings(recs); len(got) != 2 || got[0] != "aaaa" || got[1] != "bbbb" {
		t.Fatalf("recovered %v, want [aaaa bbbb]", got)
	}
	if !lc.contains("truncating wal") {
		t.Fatalf("no truncation warning logged: %v", lc())
	}
	if s2.Seq() != 2 {
		t.Fatalf("seq = %d, want 2", s2.Seq())
	}
	// The log must stay appendable after truncation, and the repaired tail
	// must survive another cycle.
	appendAll(t, s2, "dddd")
	s2.Close()
	s3, _, recs := openAndRecover(t, dir)
	defer s3.Close()
	if got := recordStrings(recs); len(got) != 3 || got[2] != "dddd" {
		t.Fatalf("after repair: %v", got)
	}
}

func TestCorruptTailChecksumIsTruncated(t *testing.T) {
	dir := t.TempDir()
	lc := captureLog(t)
	s, _, _ := openAndRecover(t, dir)
	appendAll(t, s, "aaaa", "bbbb", "cccc")
	s.Close()

	// Flip a byte inside the final record's payload.
	seg := activeSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, _, recs := openAndRecover(t, dir)
	defer s2.Close()
	if got := recordStrings(recs); len(got) != 2 || got[1] != "bbbb" {
		t.Fatalf("recovered %v, want [aaaa bbbb]", got)
	}
	if !lc.contains("checksum mismatch") {
		t.Fatalf("no checksum warning logged: %v", lc())
	}
}

func TestCrashMidSnapshotLeavesTempIgnored(t *testing.T) {
	dir := t.TempDir()
	lc := captureLog(t)
	s, _, _ := openAndRecover(t, dir)
	appendAll(t, s, "a", "b")
	s.Close()

	// A crash mid-snapshot leaves a partial .tmp under the temp name.
	tmp := filepath.Join(dir, snapshotName(2)+".tmp")
	if err := os.WriteFile(tmp, []byte("partial garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, snap, recs := openAndRecover(t, dir)
	defer s2.Close()
	if snap != nil {
		t.Fatalf("loaded a snapshot from garbage: %q", snap)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %v", recordStrings(recs))
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file not removed: %v", err)
	}
	if !lc.contains("incomplete temp file") {
		t.Fatalf("no temp-file warning: %v", lc())
	}
}

func TestCorruptSnapshotWithRotatedWALIsUnrecoverable(t *testing.T) {
	dir := t.TempDir()
	lc := captureLog(t)
	s, _, _ := openAndRecover(t, dir)
	appendAll(t, s, "a", "b")
	if err := s.Snapshot(func(w io.Writer) error {
		_, err := w.Write(bytes.Repeat([]byte("x"), 256))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Corrupt the snapshot payload. The pre-snapshot WAL segment was
	// deleted at compaction, so recovery must refuse to serve a partial
	// database rather than silently dropping records [0,2).
	snapPath := filepath.Join(dir, snapshotName(2))
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0xff
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = s2.Recover(func(io.Reader) error { return nil }, func([]byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "unrecoverable gap") {
		t.Fatalf("Recover = %v, want unrecoverable-gap error", err)
	}
	if !lc.contains("ignoring invalid snapshot") {
		t.Fatalf("no invalid-snapshot warning: %v", lc())
	}
}

func TestCompactionDeletesObsoleteFiles(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := openAndRecover(t, dir)
	appendAll(t, s, "a", "b", "c")
	snapFn := func(w io.Writer) error { _, err := w.Write([]byte("S")); return err }
	if err := s.Snapshot(snapFn); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "d")
	if err := s.Snapshot(snapFn); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps, segs int
	for _, e := range entries {
		if _, ok := parseSnapshotName(e.Name()); ok {
			snaps++
		}
		if _, ok := parseSegmentName(e.Name()); ok {
			segs++
		}
	}
	if snaps != 1 || segs != 1 {
		t.Fatalf("after two compactions: %d snapshots, %d segments (want 1, 1)", snaps, segs)
	}
}

func TestSnapshotNoNewRecordsIsNoop(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := openAndRecover(t, dir)
	defer s.Close()
	appendAll(t, s, "a")
	calls := 0
	fn := func(w io.Writer) error { calls++; _, err := w.Write([]byte("S")); return err }
	if err := s.Snapshot(fn); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(fn); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("snapshot writer called %d times, want 1", calls)
	}
}

// TestSnapshotOnFreshStore snapshots a store that has never logged a
// record: the empty state must be written and the active (empty) segment
// must survive — rotating it onto itself was once an error.
func TestSnapshotOnFreshStore(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := openAndRecover(t, dir)
	fn := func(w io.Writer) error { _, err := w.Write([]byte("EMPTY")); return err }
	if err := s.Snapshot(fn); err != nil {
		t.Fatal(err)
	}
	// The store must remain fully usable: append and recover.
	appendAll(t, s, "x")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, loaded, replayed := openAndRecover(t, dir)
	defer s2.Close()
	if string(loaded) != "EMPTY" {
		t.Fatalf("loaded %q", loaded)
	}
	if got := recordStrings(replayed); len(got) != 1 || got[0] != "x" {
		t.Fatalf("replayed %v, want [x]", got)
	}
}

func TestGroupCommitSharesFsyncs(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := openAndRecover(t, dir)
	defer s.Close()

	// Stretch each commit so that appends issued while one batch is being
	// written pile into the next batch.
	s.wal.mu.Lock()
	s.wal.testSyncDelay = 20 * time.Millisecond
	s.wal.mu.Unlock()

	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Append([]byte(fmt.Sprintf("rec-%03d", i))).Wait()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if syncs := s.Syncs(); syncs >= n/2 {
		t.Fatalf("group commit ineffective: %d fsyncs for %d concurrent appends", syncs, n)
	}
}

func TestAppendBeforeRecoverFails(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]byte("x")).Wait(); err == nil {
		t.Fatal("Append before Recover succeeded")
	}
}

func TestAppendOrderIsReplayOrder(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := openAndRecover(t, dir)
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := fmt.Sprintf("r%02d", i)
			// The lock models the owner's database lock: reservation and
			// the in-memory apply happen under it, so WAL order == apply
			// order even with concurrent producers.
			mu.Lock()
			c := s.Append([]byte(p))
			order = append(order, p)
			mu.Unlock()
			if err := c.Wait(); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	s.Close()

	s2, _, recs := openAndRecover(t, dir)
	defer s2.Close()
	got := recordStrings(recs)
	if len(got) != len(order) {
		t.Fatalf("replayed %d records, appended %d", len(got), len(order))
	}
	for i := range got {
		if got[i] != order[i] {
			t.Fatalf("replay order diverges at %d: %q vs %q", i, got[i], order[i])
		}
	}
}

// TestConcurrentSnapshots races many Snapshot calls — the server's explicit
// Compact against its background snapshotter — with appends excluded, as the
// Store contract requires. The store must serialize the writers internally:
// interleaved writers would corrupt the snapshot file and then delete the
// WAL segments it covers, losing the database. Exactly one coherent snapshot
// must land and recovery must reproduce the state without warnings.
func TestConcurrentSnapshots(t *testing.T) {
	dir := t.TempDir()
	lc := captureLog(t)
	s, _, _ := openAndRecover(t, dir)
	appendAll(t, s, "a", "b", "c")

	state := []byte("state-after-abc")
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Snapshot(func(w io.Writer) error {
				// Stretch the write window byte by byte so unserialized
				// writers would actually interleave.
				for _, b := range state {
					if _, err := w.Write([]byte{b}); err != nil {
						return err
					}
					time.Sleep(100 * time.Microsecond)
				}
				return nil
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, snap, recs := openAndRecover(t, dir)
	defer s2.Close()
	if !bytes.Equal(snap, state) {
		t.Fatalf("recovered snapshot %q, want %q", snap, state)
	}
	if len(recs) != 0 {
		t.Fatalf("unexpected replayed records %v", recordStrings(recs))
	}
	if lc.contains("invalid snapshot") {
		t.Fatalf("recovery skipped a corrupt snapshot: %v", lc())
	}
}

// TestWALBytesGaugeAfterRecovery: the wal_bytes gauge a store is opened with
// reports the recovered active segment before the first new append.
func TestWALBytesGaugeAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := openAndRecover(t, dir)
	appendAll(t, s, "alpha", "beta")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walBytes := obs.NewRegistry().Gauge("wal_bytes")
	s, err := Open(dir, Options{Metrics: Metrics{WALBytes: walBytes}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Recover(func(io.Reader) error { return nil }, func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got, want := walBytes.Value(), s.WALBytes(); got != want || got == 0 {
		t.Fatalf("wal_bytes gauge = %d after recovery, store reports %d", got, want)
	}
}
