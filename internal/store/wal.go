package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"visualprint/internal/obs"
)

// WAL file layout. A segment file is named wal-<firstSeq:016x>.log and
// starts with a 16-byte header: the magic followed by the sequence number
// of its first record (the filename carries the same number and is the
// source of truth when the header is torn). Records follow back to back:
//
//	[uint32 payload length][uint32 CRC32-IEEE of payload][payload]
//
// Records are implicitly sequenced: header firstSeq + position in file.
const (
	walMagic      = "VPWAL1\x00\x00"
	walHeaderSize = 16
	recHeaderSize = 8
)

// maxRecordSize bounds one WAL record; a longer length prefix is treated as
// corruption rather than attempted as an allocation.
const maxRecordSize = 1 << 30

var errWALClosed = errors.New("store: wal closed")

// Commit is the durability handle returned by Append. Wait blocks until the
// record (batched with its group-commit peers) has reached stable storage.
type Commit struct{ b *commitBatch }

// Wait blocks until the record's batch is fsynced and returns the batch's
// write error, if any.
func (c *Commit) Wait() error {
	<-c.b.done
	return c.b.err
}

// commitBatch is the unit of group commit: every record reserved while the
// committer was busy shares one fsync and one done signal.
type commitBatch struct {
	done chan struct{}
	err  error
}

func failedCommit(err error) *Commit {
	b := &commitBatch{done: make(chan struct{}), err: err}
	close(b.done)
	return &Commit{b: b}
}

// wal is the append side of the log. Reservation (ordering) is decoupled
// from durability: Append assigns the record its position under the mutex
// and returns immediately; a single committer goroutine drains the pending
// queue, writes each batch with one Write and one fsync, and releases every
// waiter in the batch — concurrent producers therefore share fsyncs.
type wal struct {
	dir    string
	noSync bool
	log    *obs.Logger

	// Instruments, fixed at construction; nil instruments are no-ops.
	fsyncNs      *obs.Histogram
	batchRecords *obs.Histogram
	walBytes     *obs.Gauge

	mu       sync.Mutex
	cond     *sync.Cond // broadcast on batch completion and close
	f        *os.File
	path     string
	firstSeq uint64 // first record sequence of the active segment
	nextSeq  uint64 // sequence the next Append will get
	size     int64  // active segment bytes, including reserved-not-yet-written
	pending  [][]byte
	cur      *commitBatch
	busy     bool // committer is writing a batch
	err      error
	closed   bool
	done     chan struct{}

	syncs int64 // fsync count, for tests and throughput diagnostics
	// testSyncDelay stretches the commit window so tests can observe
	// batching deterministically.
	testSyncDelay time.Duration
}

func newWAL(dir string, noSync bool, lg *obs.Logger, m Metrics) *wal {
	w := &wal{
		dir: dir, noSync: noSync, log: lg, done: make(chan struct{}),
		fsyncNs: m.FsyncNs, batchRecords: m.BatchRecords, walBytes: m.WALBytes,
	}
	w.cond = sync.NewCond(&w.mu)
	return w
}

func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%016x.log", firstSeq)
}

func parseSegmentName(name string) (firstSeq uint64, ok bool) {
	var seq uint64
	if n, err := fmt.Sscanf(name, "wal-%016x.log", &seq); n != 1 || err != nil {
		return 0, false
	}
	if name != segmentName(seq) {
		return 0, false
	}
	return seq, true
}

// createSegment writes a fresh segment file with its header synced, and
// fsyncs the directory so the new entry survives power loss — without it,
// record fsyncs land in a file whose directory entry may not be durable,
// silently voiding the durability contract for everything appended after a
// rotation.
func createSegment(dir string, firstSeq uint64, noSync bool) (*os.File, string, error) {
	path := filepath.Join(dir, segmentName(firstSeq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, "", err
	}
	var hdr [walHeaderSize]byte
	copy(hdr[:], walMagic)
	binary.LittleEndian.PutUint64(hdr[8:], firstSeq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, "", err
	}
	if !noSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, "", err
		}
		if err := syncDir(dir); err != nil {
			f.Close()
			return nil, "", err
		}
	}
	return f, path, nil
}

// start attaches the wal to an open active segment and launches the
// committer. f must be positioned at end-of-file (O_APPEND semantics are
// emulated by only ever writing from the committer).
func (w *wal) start(f *os.File, path string, firstSeq, nextSeq uint64, size int64) {
	w.f, w.path = f, path
	w.firstSeq, w.nextSeq, w.size = firstSeq, nextSeq, size
	w.walBytes.Set(size)
	go w.run()
}

func encodeRecord(payload []byte) []byte {
	buf := make([]byte, recHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(payload))
	copy(buf[recHeaderSize:], payload)
	return buf
}

// append reserves the next sequence number for payload and queues it for
// the committer. The caller's externally-serialized append order is the
// replay order.
func (w *wal) append(payload []byte) *Commit {
	if len(payload) > maxRecordSize {
		return failedCommit(errors.New("store: record too large"))
	}
	rec := encodeRecord(payload)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return failedCommit(w.err)
	}
	if w.closed {
		return failedCommit(errWALClosed)
	}
	if w.cur == nil {
		w.cur = &commitBatch{done: make(chan struct{})}
	}
	w.pending = append(w.pending, rec)
	w.nextSeq++
	w.size += int64(len(rec))
	w.walBytes.Set(w.size)
	w.cond.Broadcast() // wake the committer
	return &Commit{b: w.cur}
}

// run is the committer loop.
func (w *wal) run() {
	w.mu.Lock()
	for {
		for !w.closed && len(w.pending) == 0 && w.err == nil {
			w.cond.Wait()
		}
		if len(w.pending) == 0 {
			// Closed (or broken with nothing queued): finished.
			w.mu.Unlock()
			close(w.done)
			return
		}
		recs := w.pending
		batch := w.cur
		f := w.f
		w.pending, w.cur = nil, nil
		w.busy = true
		delay := w.testSyncDelay
		stickyErr := w.err
		w.mu.Unlock()

		err := stickyErr
		if err == nil {
			var buf []byte
			if len(recs) == 1 {
				buf = recs[0]
			} else {
				n := 0
				for _, r := range recs {
					n += len(r)
				}
				buf = make([]byte, 0, n)
				for _, r := range recs {
					buf = append(buf, r...)
				}
			}
			commitStart := time.Now()
			_, err = f.Write(buf)
			if err == nil && !w.noSync {
				err = f.Sync()
			}
			w.fsyncNs.ObserveSince(commitStart)
			w.batchRecords.Observe(int64(len(recs)))
			if delay > 0 {
				time.Sleep(delay)
			}
		}

		w.mu.Lock()
		w.busy = false
		w.syncs++
		if err != nil && w.err == nil {
			w.err = err
		}
		batch.err = err
		close(batch.done)
		w.cond.Broadcast() // wake waitIdle / close
	}
}

// waitIdle blocks until every reserved record has been written and synced.
// Callers must guarantee no concurrent append, or this may never return.
func (w *wal) waitIdle() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for (len(w.pending) > 0 || w.busy) && w.err == nil {
		w.cond.Wait()
	}
	return w.err
}

// rotate drains the pending queue, closes the active segment and starts a
// fresh one whose first record will have sequence firstSeq (which must be
// w.nextSeq: rotation happens only at a snapshot boundary). Callers must
// exclude concurrent appends.
func (w *wal) rotate() error {
	if err := w.waitIdle(); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errWALClosed
	}
	if w.firstSeq == w.nextSeq {
		return nil // active segment holds no records; it IS the boundary
	}
	f, path, err := createSegment(w.dir, w.nextSeq, w.noSync)
	if err != nil {
		return err
	}
	w.f.Close()
	w.f, w.path = f, path
	w.firstSeq = w.nextSeq
	w.size = walHeaderSize
	w.walBytes.Set(w.size)
	return nil
}

// close flushes pending records, stops the committer and closes the file.
func (w *wal) close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		<-w.done
		return nil
	}
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.err
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (w *wal) bytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

func (w *wal) seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq
}

func (w *wal) syncCount() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncs
}

// replaySegment reads one segment, invoking replay for every record with
// sequence >= base. A torn or corrupt record is tolerated only in the final
// segment of the log: the file is truncated at the last intact record and a
// warning is logged; anywhere else it is a hard error (truncating there
// would silently drop records that later segments build on).
//
// It returns the sequence after the last intact record.
func replaySegment(path string, firstSeq uint64, isLast bool, base uint64, noSync bool, replay func(payload []byte) error, lg *obs.Logger) (nextSeq uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	fileSize := info.Size()

	// syncFile makes a recovery-time repair (truncation, header rewrite)
	// itself durable: a crash shortly after recovery must not resurrect the
	// torn bytes that subsequent appends assume are gone.
	syncFile := func() error {
		if noSync {
			return nil
		}
		sf, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		defer sf.Close()
		return sf.Sync()
	}

	truncate := func(offset int64, reason string) error {
		if !isLast {
			return fmt.Errorf("store: wal segment %s corrupt at offset %d (%s) with later segments present", filepath.Base(path), offset, reason)
		}
		lg.Warnf("store: truncating wal %s at offset %d (%s): dropping %d trailing bytes",
			filepath.Base(path), offset, reason, fileSize-offset)
		f.Close()
		if err := os.Truncate(path, offset); err != nil {
			return fmt.Errorf("store: truncating torn wal tail: %w", err)
		}
		if err := syncFile(); err != nil {
			return fmt.Errorf("store: syncing truncated wal tail: %w", err)
		}
		return nil
	}

	// A header shorter than walHeaderSize means the process died while the
	// segment was being created; the filename still identifies it.
	if fileSize < walHeaderSize {
		if terr := truncate(0, "torn segment header"); terr != nil {
			return 0, terr
		}
		// Recreate the header so the segment is appendable again.
		nf, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return 0, err
		}
		defer nf.Close()
		var hdr [walHeaderSize]byte
		copy(hdr[:], walMagic)
		binary.LittleEndian.PutUint64(hdr[8:], firstSeq)
		if _, err := nf.Write(hdr[:]); err != nil {
			return 0, err
		}
		if !noSync {
			if err := nf.Sync(); err != nil {
				return 0, err
			}
		}
		return firstSeq, nil
	}
	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, err
	}
	if string(hdr[:8]) != walMagic {
		return 0, fmt.Errorf("store: %s: bad wal magic", filepath.Base(path))
	}
	if got := binary.LittleEndian.Uint64(hdr[8:]); got != firstSeq {
		return 0, fmt.Errorf("store: %s: header seq %d disagrees with filename", filepath.Base(path), got)
	}

	r := newCountingReader(bufio.NewReaderSize(f, 1<<16), walHeaderSize)
	seq := firstSeq
	for {
		recStart := r.offset
		var rh [recHeaderSize]byte
		if _, err := io.ReadFull(r, rh[:]); err != nil {
			if err == io.EOF {
				return seq, nil // clean end at a record boundary
			}
			return seq, truncate(recStart, "torn record header")
		}
		n := binary.LittleEndian.Uint32(rh[:4])
		if int64(n) > maxRecordSize {
			return seq, truncate(recStart, "implausible record length")
		}
		// A length the file cannot hold is a torn or corrupt header: truncate
		// without allocating the buffer it asks for.
		if int64(n) > fileSize-r.offset {
			return seq, truncate(recStart, "torn record payload")
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return seq, truncate(recStart, "torn record payload")
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rh[4:]) {
			return seq, truncate(recStart, "record checksum mismatch")
		}
		if seq >= base {
			if err := replay(payload); err != nil {
				return 0, fmt.Errorf("store: replaying record %d: %w", seq, err)
			}
		}
		seq++
	}
}

// countingReader tracks the file offset of a buffered sequential read so
// corruption can be reported (and truncated) at an exact byte position.
type countingReader struct {
	r      io.Reader
	offset int64
}

func newCountingReader(r io.Reader, start int64) *countingReader {
	return &countingReader{r: r, offset: start}
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.offset += int64(n)
	return n, err
}
