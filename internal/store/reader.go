package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"visualprint/internal/obs"
)

// Streaming WAL reader: the replication primary's record source. A
// WALReader walks the on-disk segment chain record by record, concurrently
// with live appends, and its position — the sequence number of the next
// record it will return — is a plain uint64 token: close the reader, ship
// the token anywhere, and OpenReader(token) resumes exactly where it left
// off, even across a process restart. The reader never blocks appends and
// appends never invalidate it; the only thing that can pull records out
// from under a reader is compaction (a snapshot deleting segments it has
// not read yet), which surfaces as the typed ErrCompacted — the signal that
// the follower must restart from a snapshot transfer instead.

// ErrCompacted reports that the records at the requested position are no
// longer individually available: either they were folded into a snapshot
// and their segments deleted, or the position does not exist in this log at
// all (a follower of a different history). Both remedies are the same —
// full resync from a snapshot — so both wear this sentinel. Match with
// errors.Is.
var ErrCompacted = errors.New("store: requested wal records already compacted")

// WALReader iterates committed WAL records in sequence order. It owns its
// file handles and reads with ReadAt, so it never perturbs the appender;
// it is NOT safe for concurrent use by multiple goroutines.
type WALReader struct {
	s *Store
	// next is the sequence number of the record the upcoming Next returns —
	// the resumable position token.
	next uint64
	// skip suppresses records below the originally requested position while
	// the reader fast-forwards through a segment (records are variable
	// length, so positioning within a segment is a scan).
	skip uint64

	f        *os.File
	segFirst uint64
	off      int64 // byte offset of the next record header in f
	size     int64 // f's size when last measured; it only grows

	warnedAt uint64 // position of the last tail-anomaly warning, to log once
	closed   bool
}

// OpenReader positions a streaming reader at record from. The position must
// be covered by the on-disk log: older than the earliest retained segment
// (or newer than the head) returns ErrCompacted, the follower's cue to full
// resync. The caller must Close the reader.
func (s *Store) OpenReader(from uint64) (*WALReader, error) {
	if !s.started {
		return nil, errors.New("store: OpenReader before Recover")
	}
	if head := s.wal.seq(); from > head {
		return nil, fmt.Errorf("%w: position %d past head %d", ErrCompacted, from, head)
	}
	segs, err := s.listSegments()
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("%w: no wal segments on disk", ErrCompacted)
	}
	// The segment holding `from` is the last one starting at or before it.
	i := sort.Search(len(segs), func(i int) bool { return segs[i] > from }) - 1
	if i < 0 {
		return nil, fmt.Errorf("%w: position %d predates earliest segment %d", ErrCompacted, from, segs[0])
	}
	r := &WALReader{s: s, next: segs[i], skip: from}
	if err := r.openSegment(segs[i]); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// listSegments returns the firstSeqs of every on-disk segment, ascending.
func (s *Store) listSegments() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, e := range entries {
		if seq, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// openSegment opens the segment starting at firstSeq and validates its
// header. The reader's byte offset rewinds to the first record.
func (r *WALReader) openSegment(firstSeq uint64) error {
	path := filepath.Join(r.s.dir, segmentName(firstSeq))
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("%w: segment %s deleted", ErrCompacted, segmentName(firstSeq))
		}
		return err
	}
	var hdr [walHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.Close()
		return fmt.Errorf("store: reading %s header: %w", filepath.Base(path), err)
	}
	if string(hdr[:8]) != walMagic {
		f.Close()
		return fmt.Errorf("store: %s: bad wal magic", filepath.Base(path))
	}
	if got := binary.LittleEndian.Uint64(hdr[8:]); got != firstSeq {
		f.Close()
		return fmt.Errorf("store: %s: header seq %d disagrees with filename", filepath.Base(path), got)
	}
	if r.f != nil {
		r.f.Close()
	}
	r.f, r.segFirst, r.off, r.size = f, firstSeq, walHeaderSize, 0
	return nil
}

// Pos returns the resumable position token: the sequence number of the
// record the next call to Next returns. OpenReader(Pos()) — on this store
// or a restarted one — resumes the stream without loss or duplication.
func (r *WALReader) Pos() uint64 {
	if r.next < r.skip {
		return r.skip
	}
	return r.next
}

// Next returns the next committed record and its sequence number. io.EOF
// means the reader is caught up with the durable head — poll again after
// the appender makes progress; ErrCompacted means the stream can no longer
// be served from this position (full resync required). The returned payload
// is freshly allocated and owned by the caller.
func (r *WALReader) Next() (payload []byte, seq uint64, err error) {
	if r.closed {
		return nil, 0, errors.New("store: reader closed")
	}
	for {
		p, s, err := r.nextRecord()
		if err != nil {
			return nil, 0, err
		}
		if s < r.skip {
			continue // fast-forwarding within the first segment
		}
		return p, s, nil
	}
}

// nextRecord reads the record at the current offset, handling the live
// tail (clean EOF, torn bytes mid-append → io.EOF so the caller polls) and
// sealed-segment boundaries (advance to the successor segment).
func (r *WALReader) nextRecord() (payload []byte, seq uint64, err error) {
	var rh [recHeaderSize]byte
	n, err := r.f.ReadAt(rh[:], r.off)
	if n < recHeaderSize {
		if err != nil && err != io.EOF {
			return nil, 0, err
		}
		// Clean or torn end of this segment. If a successor segment exists
		// the segment is sealed (rotation happens at exact record
		// boundaries, so torn bytes here cannot occur); move on. Otherwise
		// this is the live tail: report EOF and let the caller poll.
		if r.advance() {
			return r.nextRecord()
		}
		return nil, 0, io.EOF
	}
	ln := binary.LittleEndian.Uint32(rh[:4])
	if int64(ln) > maxRecordSize {
		return nil, 0, fmt.Errorf("store: reader: implausible record length %d at %s+%d", ln, segmentName(r.segFirst), r.off)
	}
	if err := r.checkFits(ln); err != nil {
		return nil, 0, err
	}
	payload = make([]byte, ln)
	if n, err := r.f.ReadAt(payload, r.off+recHeaderSize); n < int(ln) {
		if err != nil && err != io.EOF {
			return nil, 0, err
		}
		// Short payload: the appender's batch write is mid-flight. Poll.
		return nil, 0, io.EOF
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rh[4:]) {
		// A torn read racing the committer's Write looks exactly like this;
		// report EOF without advancing so the next poll re-reads the
		// completed bytes. (Persistent mismatch on a sealed record would be
		// corruption recovery itself will refuse; warn once per position.)
		if r.warnedAt != r.next {
			r.warnedAt = r.next
			obs.Warnf("store: reader: checksum mismatch at record %d (%s+%d); retrying as torn tail", r.next, segmentName(r.segFirst), r.off)
		}
		return nil, 0, io.EOF
	}
	seq = r.next
	r.next++
	r.off += int64(recHeaderSize) + int64(ln)
	return payload, seq, nil
}

// checkFits reports whether the record at r.off, ln payload bytes long,
// lies within the segment file, before any buffer is sized by ln. A record
// running past the end is an append still in flight on the live tail
// (io.EOF: poll) or, on a sealed segment, a corrupt length (an error).
func (r *WALReader) checkFits(ln uint32) error {
	end := r.off + recHeaderSize + int64(ln)
	fits := func() (bool, error) {
		if end <= r.size {
			return true, nil
		}
		info, err := r.f.Stat()
		if err != nil {
			return false, err
		}
		r.size = info.Size()
		return end <= r.size, nil
	}
	if ok, err := fits(); ok || err != nil {
		return err
	}
	sealed, err := r.sealed()
	if err != nil {
		return err
	}
	if !sealed {
		return io.EOF
	}
	// The appender rotates only after the segment's last write, so the
	// size measured now is final: the record may have completed between
	// the two measurements.
	if ok, err := fits(); ok || err != nil {
		return err
	}
	return fmt.Errorf("store: reader: record length %d at %s+%d runs past the end of the sealed segment (%d bytes)", ln, segmentName(r.segFirst), r.off, r.size)
}

// sealed reports whether a later segment than the reader's exists, i.e.
// the appender has rotated away from the current one.
func (r *WALReader) sealed() (bool, error) {
	segs, err := r.s.listSegments()
	if err != nil {
		return false, err
	}
	return len(segs) > 0 && segs[len(segs)-1] > r.segFirst, nil
}

// advance moves the reader to the segment whose first record is r.next. It
// reports false when no such segment exists — i.e. the current segment is
// the active one and the reader is at the durable head.
func (r *WALReader) advance() bool {
	if r.segFirst == r.next {
		// An empty successor segment (rotation with no appends since) is
		// itself the active segment; stay put.
		return false
	}
	if _, err := os.Stat(filepath.Join(r.s.dir, segmentName(r.next))); err != nil {
		return false
	}
	return r.openSegment(r.next) == nil
}

// Close releases the reader's file handle. Safe to call twice.
func (r *WALReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.f != nil {
		err := r.f.Close()
		r.f = nil
		return err
	}
	return nil
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// Wipe removes every store-owned file (WAL segments, snapshots, temp
// files) from dir, leaving other files alone. The directory must not have
// an open Store over it. Used by replication full-sync to clear a
// replica's stale history before installing the primary's snapshot.
func Wipe(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		_, isSeg := parseSegmentName(name)
		_, isSnap := parseSnapshotName(name)
		if !isSeg && !isSnap && filepath.Ext(name) != ".tmp" {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	return syncDir(dir)
}

// InstallSnapshot seeds a freshly opened, not-yet-recovered store with a
// snapshot payload covering the first seq records — the replication
// full-sync path: a follower wipes its directory, Opens a store, installs
// the snapshot the primary shipped, and Recovers; its state then equals the
// primary's at seq and its WAL continues from seq, so record sequence
// numbers line up across the fleet. The directory must hold no prior
// snapshots or segments.
func (s *Store) InstallSnapshot(seq uint64, payload []byte) error {
	if s.recovered {
		return errors.New("store: InstallSnapshot after Recover")
	}
	if len(s.recoverSnaps) > 0 || len(s.recoverSegs) > 0 {
		return errors.New("store: InstallSnapshot requires an empty store directory")
	}
	if _, err := writeSnapshot(s.dir, seq, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}, s.noSync); err != nil {
		return err
	}
	s.recoverSnaps = []uint64{seq}
	return nil
}
