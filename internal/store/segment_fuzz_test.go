package store

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"visualprint/internal/obs"
)

// allocated returns the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// hostileHeader is a record header claiming the largest payload a record
// may have, with nothing behind it.
func hostileHeader() []byte {
	var rh [recHeaderSize]byte
	binary.LittleEndian.PutUint32(rh[:], maxRecordSize)
	return rh[:]
}

// recoverSegment writes body as the only WAL segment of a fresh directory,
// behind a valid header, and recovers a store from it. It returns the store,
// the recovered records and the bytes Recover allocated.
func recoverSegment(t *testing.T, body []byte) (*Store, [][]byte, uint64) {
	t.Helper()
	dir := t.TempDir()
	f, _, err := createSegment(dir, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{NoSync: true, Log: obs.Discard})
	if err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	alloc := allocated(func() {
		err = s.Recover(nil, func(p []byte) error {
			recs = append(recs, append([]byte(nil), p...))
			return nil
		})
	})
	if err != nil {
		t.Fatalf("recovering a lone segment: %v", err)
	}
	return s, recs, alloc
}

// allocSlack is what recovery and a reader pass may allocate beyond the
// bytes they read: the 64 KiB recovery read buffer, file handles and
// directory listings.
const allocSlack = 256 << 10

func TestReaderHostileLengthBounded(t *testing.T) {
	s := openEmpty(t)
	defer s.Close()
	appendN(t, s, 0, 3)
	seg := activeSegment(t, s.dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Write(hostileHeader())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.OpenReader(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := drain(t, r, 0); got != 3 {
		t.Fatalf("drained to %d, want 3", got)
	}
	// Live tail: the claimed payload may still be in flight, so poll.
	var nextErr error
	if alloc := allocated(func() { _, _, nextErr = r.Next() }); alloc > allocSlack {
		t.Fatalf("reader allocated %d bytes for a hostile header on the live tail", alloc)
	}
	if nextErr != io.EOF {
		t.Fatalf("live tail: Next = %v, want io.EOF", nextErr)
	}
	// Sealed: a snapshot rotates to a new segment, so the header can no
	// longer be completed and the reader must report it.
	if err := s.Snapshot(func(w io.Writer) error { _, err := w.Write([]byte("state")); return err }); err != nil {
		t.Fatal(err)
	}
	if alloc := allocated(func() { _, _, nextErr = r.Next() }); alloc > allocSlack {
		t.Fatalf("reader allocated %d bytes for a hostile header on a sealed segment", alloc)
	}
	if nextErr == nil || nextErr == io.EOF {
		t.Fatalf("sealed segment: Next = %v, want a corruption error", nextErr)
	}
}

// FuzzWALSegment feeds arbitrary bytes to WAL recovery and to a WALReader as
// the body of a segment with a valid header. Recovery of a lone segment
// never fails: it keeps the longest prefix of intact records and truncates
// the rest, so the file afterwards is exactly those records re-encoded. The
// body is then appended again, as a live tail, and a reader must return the
// intact records twice and stop where recovery stopped. Neither may
// allocate more than a small multiple of the input, whatever lengths the
// headers claim.
func FuzzWALSegment(f *testing.F) {
	rec := func(p string) []byte { return encodeRecord([]byte(p)) }
	f.Add([]byte{})
	f.Add(rec("a"))
	f.Add(append(rec("first"), rec("second")...))
	f.Add(append(rec("kept"), hostileHeader()...))
	f.Add(append(rec("kept"), rec("torn")[:7]...))
	f.Add(append(rec("kept"), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, body []byte) {
		s, recs, alloc := recoverSegment(t, body)
		defer s.Close()
		if bound := 2*uint64(len(body)) + allocSlack; alloc > bound {
			t.Fatalf("recovery allocated %d bytes for a %d-byte segment", alloc, len(body))
		}
		var kept []byte
		for _, p := range recs {
			kept = append(kept, encodeRecord(p)...)
		}
		seg := filepath.Join(s.dir, segmentName(0))
		onDisk, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk[walHeaderSize:], kept) || !bytes.HasPrefix(body, kept) {
			t.Fatalf("segment holds %d record bytes after recovery, want the %d intact ones", len(onDisk)-walHeaderSize, len(kept))
		}

		tail, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		_, err = tail.Write(body)
		if cerr := tail.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.OpenReader(0)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		var got [][]byte
		var stop error
		alloc = allocated(func() {
			for stop == nil {
				var p []byte
				var seq uint64
				if p, seq, stop = r.Next(); stop == nil {
					if seq != uint64(len(got)) {
						t.Errorf("reader seq %d, want %d", seq, len(got))
					}
					got = append(got, p)
				}
			}
		})
		if bound := 3*uint64(len(body)) + allocSlack; alloc > bound {
			t.Fatalf("reader allocated %d bytes for a %d-byte segment", alloc, len(body))
		}
		// The appended body ends the live tail, so the reader stops as
		// recovery did: a short or mismatched record is a poll (io.EOF), a
		// length no record may have an error.
		if stop != io.EOF && !strings.Contains(stop.Error(), "implausible record length") {
			t.Fatalf("reader stopped with %v", stop)
		}
		want := append(append([][]byte(nil), recs...), recs...)
		if len(got) != len(want) {
			t.Fatalf("reader returned %d records, want the %d intact ones twice", len(got), len(recs))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d: reader %q, recovery %q", i, got[i], want[i])
			}
		}
	})
}
