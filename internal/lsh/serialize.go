package lsh

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Index serialization, used by the server's durable snapshots. The format
// stores the parameter set (from which the projection family is rebuilt
// deterministically — the Gaussian coefficients themselves are never
// written), the retained descriptors, and the L bucket tables verbatim.
// Per-bucket id slices keep their insertion order, which is what makes a
// deserialized index answer queries bit-identically to the original:
// candidate enumeration order, and therefore tie-breaking among equal
// distances, is preserved.
const indexMagic = "VPLSH1\x00\x00"

// WriteTo serializes the index as a fresh index of its Len descriptors would
// hold them. The stream is framed by the caller (the server snapshot wraps it
// in a checksummed container).
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(indexMagic); err != nil {
		return 0, err
	}
	p := ix.h.p
	hdr := []any{
		uint32(p.L), uint32(p.M), p.W, uint32(p.Dim), p.Seed,
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return 0, err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(ix.Len())); err != nil {
		return 0, err
	}
	if _, err := bw.Write(ix.descs); err != nil {
		return 0, err
	}
	for t := range ix.t.maps {
		// Two passes over the same handle-bounded buckets: the count, then
		// the entries.
		var n uint64
		ix.eachBucket(t, func(uint64, []int32) { n++ })
		err := binary.Write(bw, binary.LittleEndian, n)
		ix.eachBucket(t, func(key uint64, ids []int32) {
			for _, x := range []any{key, uint32(len(ids)), ids} {
				if err == nil {
					err = binary.Write(bw, binary.LittleEndian, x)
				}
			}
		})
		if err != nil {
			return 0, err
		}
	}
	return 0, bw.Flush()
}

// ReadIndex deserializes an index written by WriteTo, rebuilding the
// projection family from the stored seed. The stream's parameters must equal
// want, checked before anything is allocated; the descriptor arena grows as
// the bytes arrive, never to a size the header merely claims; and every
// bucket id must be in range, strictly increasing within its bucket (the
// order a bounded query relies on) and in one bucket per table. It consumes exactly the bytes WriteTo produced — no
// internal read-ahead — so the index can be embedded mid-stream (the server's
// database snapshot does); hand it a buffered reader when performance
// matters.
func ReadIndex(r io.Reader, want Params) (*Index, error) {
	magic := make([]byte, len(indexMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, err
	}
	if string(magic) != indexMagic {
		return nil, fmt.Errorf("lsh: bad index magic %q", magic)
	}
	var p Params
	var l, m, dim uint32
	var nDescs uint64
	for _, v := range []any{&l, &m, &p.W, &dim, &p.Seed} {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return nil, err
		}
	}
	p.L, p.M, p.Dim = int(l), int(m), int(dim)
	if p != want {
		return nil, fmt.Errorf("lsh: index params %+v differ from expected %+v", p, want)
	}
	ix, err := NewIndex(p)
	if err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.LittleEndian, &nDescs); err != nil {
		return nil, err
	}
	if nDescs > math.MaxInt32 {
		return nil, errors.New("lsh: implausible descriptor count")
	}
	for uint64(len(ix.descs)) < nDescs*uint64(p.Dim) {
		ix.descs = append(ix.descs, make([]byte, p.Dim)...)
		if _, err := io.ReadFull(r, ix.descs[len(ix.descs)-p.Dim:]); err != nil {
			return nil, err
		}
	}
	for t := range ix.next {
		ix.next[t] = make([]int32, nDescs)
	}
	ix.t.n = int(nDescs)
	placed := make([]int, nDescs) // per id, 1 + the last table that placed it
	for t := range ix.t.maps {
		var nBuckets uint64
		if err := binary.Read(r, binary.LittleEndian, &nBuckets); err != nil {
			return nil, err
		}
		for range nBuckets {
			var key uint64
			var n uint32
			if err := binary.Read(r, binary.LittleEndian, &key); err != nil {
				return nil, err
			}
			if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
				return nil, err
			}
			if n == 0 || uint64(n) > nDescs {
				return nil, errors.New("lsh: bucket size out of range")
			}
			ids := make([]int32, n)
			if err := binary.Read(r, binary.LittleEndian, ids); err != nil {
				return nil, err
			}
			if _, h := find(*ix.t.maps[t].Load(), key); h != 0 {
				return nil, errors.New("lsh: duplicate bucket key")
			}
			for i, id := range ids {
				if id < 0 || uint64(id) >= nDescs || (i > 0 && id <= ids[i-1]) || placed[id] == t+1 {
					return nil, errors.New("lsh: bucket ids out of range, not increasing or repeated")
				}
				placed[id] = t + 1
				if ix.add(t, key, id) {
					ix.nBuckets++
				}
			}
		}
	}
	return ix, nil
}
