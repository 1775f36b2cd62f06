// Package store is a durable state engine: an append-only, checksummed,
// group-committed write-ahead log paired with versioned point-in-time
// snapshots, plus the crash-recovery procedure that stitches them back into
// the owner's in-memory state.
//
// The store is deliberately generic — it moves opaque []byte records and
// snapshot payloads, and knows nothing about keypoints or Bloom filters.
// The VisualPrint server layers its Database on top: every ingest batch
// becomes one WAL record, and a background snapshotter periodically folds
// the log into a snapshot of the full database (see internal/server).
//
// # Durability contract
//
// Append decouples ordering from durability: it assigns the record the next
// sequence number immediately (the caller's append order is the replay
// order) and returns a Commit handle; Commit.Wait blocks until the record
// is on stable storage. A single committer goroutine drains everything
// reserved while the previous fsync was in flight and commits it with one
// write and one fsync — concurrent producers share fsyncs (group commit).
// A crash can therefore lose only records whose Wait had not yet returned;
// anything acknowledged is recoverable.
//
// # Recovery
//
// Recover loads the newest snapshot that passes full-file checksum
// validation, then replays every WAL record with sequence >= the snapshot's
// coverage, in sequence order. A torn or checksum-corrupt record at the
// tail of the final segment — the signature of a mid-append crash — is
// truncated away with a logged warning; corruption anywhere else is a hard
// error, because truncating it would silently drop acknowledged records
// that later segments build on. Leftover .tmp files from a crash
// mid-snapshot are deleted at Open.
package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"visualprint/internal/obs"
)

// Options configures a Store.
type Options struct {
	// NoSync skips every fsync. Only for benchmarks and tests that model a
	// lossy disk; a NoSync store offers no durability past the OS cache.
	NoSync bool
	// Metrics wires the store's instruments (WAL fsync latency,
	// group-commit batch size, snapshot duration and size). The zero
	// value records nothing; individual instruments may be nil.
	Metrics Metrics
}

// Metrics is the store's instrument set. Every field is optional: nil
// instruments are no-ops (see internal/obs), so the store can be run
// fully, partially or not at all instrumented.
type Metrics struct {
	// FsyncNs observes the latency of each group-commit write+fsync.
	FsyncNs *obs.Histogram
	// BatchRecords observes how many records shared each group commit —
	// the batching win over one-fsync-per-record.
	BatchRecords *obs.Histogram
	// SnapshotNs observes the duration of each snapshot write (payload
	// serialization through WAL rotation).
	SnapshotNs *obs.Histogram
	// SnapshotBytes holds the size of the newest snapshot file.
	SnapshotBytes *obs.Gauge
	// Snapshots counts snapshots written.
	Snapshots *obs.Counter
	// WALBytes tracks the active WAL segment size.
	WALBytes *obs.Gauge
}

// Store is a WAL + snapshot persistence engine rooted at one directory.
// Append and the read-only accessors are safe for concurrent use once
// Recover has run; Snapshot and Close require the caller to exclude
// concurrent Appends (the server holds its database lock for both).
type Store struct {
	dir    string
	noSync bool

	wal     *wal
	started bool

	// snapMu serializes Snapshot calls: the server's compaction entry
	// points (explicit Compact, background snapshotter) only exclude
	// Appends, not each other, and two interleaved writers would produce a
	// corrupt snapshot file and then delete the WAL segments it covers.
	snapMu sync.Mutex

	met Metrics

	mu             sync.Mutex
	snapSeq        uint64 // records covered by the newest snapshot
	haveSnap       bool
	lastCompaction time.Time

	// recovery scan results, consumed by Recover
	recoverSnaps []uint64 // candidate snapshot seqs, newest first
	recoverSegs  []uint64 // segment firstSeqs, ascending
	recovered    bool
}

// Open prepares a store rooted at dir, creating the directory if needed and
// discarding leftovers of a crashed snapshot. Recover must be called before
// Append.
func Open(dir string, opt Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, noSync: opt.NoSync, met: opt.Metrics}
	for _, e := range entries {
		name := e.Name()
		switch {
		case filepath.Ext(name) == ".tmp":
			// A snapshot that was being written when the process died.
			obs.Warnf("store: removing incomplete temp file %s", name)
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, err
			}
		default:
			if seq, ok := parseSnapshotName(name); ok {
				s.recoverSnaps = append(s.recoverSnaps, seq)
			} else if seq, ok := parseSegmentName(name); ok {
				s.recoverSegs = append(s.recoverSegs, seq)
			}
		}
	}
	sort.Slice(s.recoverSnaps, func(i, j int) bool { return s.recoverSnaps[i] > s.recoverSnaps[j] })
	sort.Slice(s.recoverSegs, func(i, j int) bool { return s.recoverSegs[i] < s.recoverSegs[j] })
	s.wal = newWAL(dir, opt.NoSync, opt.Metrics)
	return s, nil
}

// Recover rebuilds the owner's state: load receives the payload of the
// newest valid snapshot (and is not called when none exists); replay
// receives every logged record past the snapshot, in append order. It must
// be called exactly once, before any Append or Snapshot.
func (s *Store) Recover(load func(r io.Reader) error, replay func(payload []byte) error) error {
	if s.recovered {
		return errors.New("store: Recover called twice")
	}
	s.recovered = true

	// Newest snapshot that validates end to end wins; invalid ones are
	// reported and skipped.
	base := uint64(0)
	for _, seq := range s.recoverSnaps {
		path := filepath.Join(s.dir, snapshotName(seq))
		if err := validateSnapshot(path, seq); err != nil {
			obs.Warnf("store: ignoring invalid snapshot %s: %v", snapshotName(seq), err)
			continue
		}
		if err := loadSnapshot(path, load); err != nil {
			return fmt.Errorf("store: loading snapshot %s: %w", snapshotName(seq), err)
		}
		base = seq
		s.haveSnap = true
		s.snapSeq = seq
		if info, err := os.Stat(path); err == nil {
			s.lastCompaction = info.ModTime()
		}
		break
	}

	// The log must cover [base, head]: its first segment may not start
	// past the snapshot, or acknowledged records are unrecoverable.
	if len(s.recoverSegs) > 0 && s.recoverSegs[0] > base {
		return fmt.Errorf("store: wal starts at record %d but newest valid snapshot covers only %d — unrecoverable gap", s.recoverSegs[0], base)
	}

	nextSeq := base
	for i, firstSeq := range s.recoverSegs {
		isLast := i == len(s.recoverSegs)-1
		path := filepath.Join(s.dir, segmentName(firstSeq))
		if i > 0 && firstSeq != nextSeq {
			return fmt.Errorf("store: wal segment gap: %s follows record %d", segmentName(firstSeq), nextSeq)
		}
		segNext, err := replaySegment(path, firstSeq, isLast, base, s.noSync, replay)
		if err != nil {
			return err
		}
		nextSeq = segNext
	}

	// Attach the appender to the final segment (creating one if the log is
	// empty) and start the committer.
	var (
		f        *os.File
		path     string
		firstSeq uint64
	)
	if len(s.recoverSegs) > 0 {
		firstSeq = s.recoverSegs[len(s.recoverSegs)-1]
		path = filepath.Join(s.dir, segmentName(firstSeq))
		var err error
		f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
	} else {
		var err error
		f, path, err = createSegment(s.dir, base, s.noSync)
		if err != nil {
			return err
		}
		firstSeq = base
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	s.wal.start(f, path, firstSeq, nextSeq, info.Size())
	s.started = true
	return nil
}

// Append logs one record. The returned Commit's Wait reports durability;
// the record's position in the replay order is fixed at the moment Append
// returns, so callers that apply records to in-memory state under a lock
// get an identical order on recovery by appending under the same lock.
func (s *Store) Append(payload []byte) *Commit {
	if !s.started {
		return failedCommit(errors.New("store: Append before Recover"))
	}
	return s.wal.append(payload)
}

// Snapshot folds the current state into a new snapshot file: write streams
// the owner's full serialized state; the WAL is then rotated at the
// snapshot boundary and obsolete snapshots and segments are deleted. The
// caller must exclude concurrent Appends for the duration (the state being
// written must be exactly the state at the log head); concurrent Snapshot
// calls are serialized internally, the loser seeing an up-to-date snapshot
// and returning without writing.
func (s *Store) Snapshot(write func(w io.Writer) error) error {
	if !s.started {
		return errors.New("store: Snapshot before Recover")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if err := s.wal.waitIdle(); err != nil {
		return err
	}
	seq := s.wal.seq()
	s.mu.Lock()
	already := s.haveSnap && s.snapSeq == seq
	s.mu.Unlock()
	if already {
		return nil // nothing logged since the last snapshot
	}
	met := s.met
	start := time.Now()
	path, err := writeSnapshot(s.dir, seq, write, s.noSync)
	if err != nil {
		return err
	}
	if err := s.wal.rotate(); err != nil {
		return err
	}
	met.SnapshotNs.ObserveSince(start)
	met.Snapshots.Inc()
	if info, err := os.Stat(path); err == nil {
		met.SnapshotBytes.Set(info.Size())
	}
	s.mu.Lock()
	s.snapSeq = seq
	s.haveSnap = true
	s.lastCompaction = time.Now()
	s.mu.Unlock()
	s.removeObsolete(seq)
	return nil
}

// removeObsolete deletes snapshots older than seq and WAL segments fully
// covered by it. Failures are logged, not fatal: stale files cost disk, not
// correctness, and the next compaction retries.
func (s *Store) removeObsolete(seq uint64) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		obs.Warnf("store: compaction cleanup: %v", err)
		return
	}
	for _, e := range entries {
		name := e.Name()
		var stale bool
		if sseq, ok := parseSnapshotName(name); ok {
			stale = sseq < seq
		} else if fseq, ok := parseSegmentName(name); ok {
			// Segments are rotated exactly at snapshot boundaries, so any
			// segment starting before seq ends at or before it.
			stale = fseq < seq
		}
		if stale {
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
				obs.Warnf("store: compaction cleanup %s: %v", name, err)
			}
		}
	}
}

// Close flushes pending commits and releases the directory. Callers must
// exclude concurrent Appends.
func (s *Store) Close() error {
	if !s.started {
		return nil
	}
	return s.wal.close()
}

// WALBytes returns the size of the active WAL segment (header included) —
// the quantity the owner compares against its compaction threshold.
func (s *Store) WALBytes() int64 {
	if !s.started {
		return 0
	}
	return s.wal.bytes()
}

// Seq returns the sequence number the next appended record will get, i.e.
// the total number of records ever logged.
func (s *Store) Seq() uint64 {
	if !s.started {
		return 0
	}
	return s.wal.seq()
}

// SnapshotSeq returns the record coverage of the newest snapshot (0 when no
// snapshot exists; use HasSnapshot to disambiguate an empty store).
func (s *Store) SnapshotSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapSeq
}

// HasSnapshot reports whether a valid snapshot exists on disk.
func (s *Store) HasSnapshot() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.haveSnap
}

// LastCompaction returns when the newest snapshot was written (zero when
// none exists). After recovery it reflects the snapshot file's mtime.
func (s *Store) LastCompaction() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastCompaction
}

// Syncs returns the number of commit batches written — always <= the
// number of appended records; the gap is group commit at work.
func (s *Store) Syncs() int64 {
	if !s.started {
		return 0
	}
	return s.wal.syncCount()
}
