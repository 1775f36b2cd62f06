// Package odelta encodes the cell-wise delta between two versions of the
// same uniqueness oracle as a sparse, varint+gzip record — the oracle
// distribution format behind versioned epochs (DESIGN.md "Oracle
// distribution").
//
// A counting-Bloom oracle only ever gains counter increments and verify
// bits, so the set of cells that change across one wardrive ingest batch is
// tiny relative to the filter arrays. A delta record lists exactly those
// cells with their NEW absolute values (not increments or XOR masks), which
// makes records composable: applying epochs n→n+1 then n+1→n+2 yields the
// identical bytes as applying one record n→n+2, and replay is idempotent.
// Records gzip the sparse payload; when an ingest batch touches so many
// cells that the sparse form stops paying for itself, Diff falls back to a
// Full record carrying a gzip full oracle blob, which also resets the chain
// base for clients that were outside the delta window.
package odelta

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"visualprint/internal/bloom"
	"visualprint/internal/codec"
	"visualprint/internal/core"
)

// Record is one epoch step of the oracle's version history: the cell-wise
// delta (or full blob) carrying a client whose oracle matches
// (FromEpoch, FromInserts) to (ToEpoch, ToInserts).
type Record struct {
	// FromEpoch/ToEpoch are the engine-assigned oracle versions the record
	// spans. A Full record ignores FromEpoch on apply (its payload replaces
	// the client state outright).
	FromEpoch uint64
	ToEpoch   uint64
	// FromInserts/ToInserts are the oracle insert counts before and after,
	// used to reject application against a mismatched base.
	FromInserts uint64
	ToInserts   uint64
	// Full marks a payload that is a gzip full oracle blob instead of a
	// sparse cell delta.
	Full bool
	// Payload is gzip-compressed: either the sparse cell encoding or a
	// full core.Oracle serialization.
	Payload []byte
}

// deltaMagic versions the sparse payload layout.
const deltaMagic = "VPOD1\x00"

// DefaultFullRatio is the sparse-vs-full cutoff: when the uncompressed
// sparse encoding exceeds this fraction of the oracle's in-memory size, the
// delta has lost its sparsity advantage (gzip of the dense arrays will beat
// gzip of the cell list) and Diff emits a Full record instead.
const DefaultFullRatio = 0.5

// Diff encodes the cell-wise delta carrying old (the published oracle
// before an ingest batch) to cur (after it). old and cur must share
// parameters and old must genuinely be an earlier version of cur. maxRatio
// is the sparse-vs-full cutoff (<=0 uses DefaultFullRatio); a batch dense
// enough to cross it comes back as a Full record.
func Diff(old, cur *core.Oracle, fromEpoch, toEpoch uint64, maxRatio float64) (*Record, error) {
	if old.Params() != cur.Params() {
		return nil, errors.New("odelta: diff between oracles with different parameters")
	}
	if old.Inserts() > cur.Inserts() {
		return nil, errors.New("odelta: old oracle has more inserts than current")
	}
	if maxRatio <= 0 {
		maxRatio = DefaultFullRatio
	}
	var buf bytes.Buffer
	buf.WriteString(deltaMagic)
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf.Write(tmp[:n])
	}
	budget := int(float64(cur.MemoryBytes()) * maxRatio)
	for t := 0; t < cur.NumTables(); t++ {
		ot, ct := old.Table(t), cur.Table(t)
		// Two passes: count, then gap-encode. DiffCells is word-granular,
		// so the double scan stays cheap on the sparse batches this format
		// exists for; dense batches bail to a Full record below anyway.
		var count uint64
		if err := ct.DiffCells(ot, func(uint64, uint32) { count++ }); err != nil {
			return nil, err
		}
		putUvarint(count)
		prev := uint64(0)
		first := true
		err := ct.DiffCells(ot, func(i uint64, v uint32) {
			if first {
				putUvarint(i)
				first = false
			} else {
				putUvarint(i - prev)
			}
			prev = i
			putUvarint(uint64(v))
		})
		if err != nil {
			return nil, err
		}
		putUvarint(ct.Inserts())
		if buf.Len() > budget {
			return fullRecord(cur, fromEpoch, toEpoch, old.Inserts())
		}
	}
	if cv := cur.Verify(); cv != nil {
		var count uint64
		if err := cv.DiffBits(old.Verify(), func(uint64) { count++ }); err != nil {
			return nil, err
		}
		putUvarint(count)
		prev := uint64(0)
		first := true
		err := cv.DiffBits(old.Verify(), func(i uint64) {
			if first {
				putUvarint(i)
				first = false
			} else {
				putUvarint(i - prev)
			}
			prev = i
		})
		if err != nil {
			return nil, err
		}
	}
	if buf.Len() > budget {
		return fullRecord(cur, fromEpoch, toEpoch, old.Inserts())
	}
	payload, err := codec.Gzip(buf.Bytes())
	if err != nil {
		return nil, err
	}
	return &Record{
		FromEpoch:   fromEpoch,
		ToEpoch:     toEpoch,
		FromInserts: old.Inserts(),
		ToInserts:   cur.Inserts(),
		Payload:     payload,
	}, nil
}

// fullRecord wraps cur's full gzip blob as a chain-base record.
func fullRecord(cur *core.Oracle, fromEpoch, toEpoch, fromInserts uint64) (*Record, error) {
	blob, err := bloom.GzipBytes(cur)
	if err != nil {
		return nil, err
	}
	return &Record{
		FromEpoch:   fromEpoch,
		ToEpoch:     toEpoch,
		FromInserts: fromInserts,
		ToInserts:   cur.Inserts(),
		Full:        true,
		Payload:     blob,
	}, nil
}

// Apply advances o by one record and returns the resulting oracle: o
// itself, mutated, for a sparse delta; a freshly decoded oracle for a Full
// record (o is untouched and may be nil in that case). A sparse delta is
// refused unless o's insert count matches the record's recorded base.
func Apply(o *core.Oracle, rec *Record) (*core.Oracle, error) {
	if rec.Full {
		raw, err := codec.Gunzip(rec.Payload)
		if err != nil {
			return nil, err
		}
		return core.Read(bytes.NewReader(raw))
	}
	if o == nil {
		return nil, errors.New("odelta: sparse delta needs a base oracle")
	}
	if o.Inserts() != rec.FromInserts {
		return nil, fmt.Errorf("odelta: delta base has %d inserts, oracle has %d", rec.FromInserts, o.Inserts())
	}
	raw, err := codec.Gunzip(rec.Payload)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(deltaMagic) || string(raw[:len(deltaMagic)]) != deltaMagic {
		return nil, errors.New("odelta: bad delta magic")
	}
	r := bytes.NewReader(raw[len(deltaMagic):])
	for t := 0; t < o.NumTables(); t++ {
		tab := o.Table(t)
		count, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		if count > tab.NumCounters() {
			return nil, errors.New("odelta: delta cell count exceeds table size")
		}
		idx := uint64(0)
		for j := uint64(0); j < count; j++ {
			gap, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, err
			}
			if j == 0 {
				idx = gap
			} else {
				idx += gap
			}
			v, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, err
			}
			if idx >= tab.NumCounters() {
				return nil, errors.New("odelta: delta cell index out of range")
			}
			tab.SetCounter(idx, uint32(v))
		}
		ins, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		tab.SetInserts(ins)
	}
	if v := o.Verify(); v != nil {
		count, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		if count > v.NumBits() {
			return nil, errors.New("odelta: delta bit count exceeds filter size")
		}
		idx := uint64(0)
		for j := uint64(0); j < count; j++ {
			gap, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, err
			}
			if j == 0 {
				idx = gap
			} else {
				idx += gap
			}
			if idx >= v.NumBits() {
				return nil, errors.New("odelta: delta bit index out of range")
			}
			v.SetBit(idx)
		}
	}
	if r.Len() != 0 {
		return nil, errors.New("odelta: trailing bytes after delta")
	}
	o.SetInserts(rec.ToInserts)
	return o, nil
}

// ApplyChain applies consecutive records in order. The first record may be
// Full (replacing the base outright — o may then be nil); subsequent
// records must each continue exactly where the previous ended.
func ApplyChain(o *core.Oracle, recs []*Record) (*core.Oracle, error) {
	for i, rec := range recs {
		if i > 0 && !rec.Full && rec.FromEpoch != recs[i-1].ToEpoch {
			return nil, fmt.Errorf("odelta: chain gap between epochs %d and %d", recs[i-1].ToEpoch, rec.FromEpoch)
		}
		next, err := Apply(o, rec)
		if err != nil {
			return nil, err
		}
		o = next
	}
	return o, nil
}

// chainMagic versions the multi-record wire encoding.
const chainMagic = "VPOC1\x00"

// EncodeChain serializes records for the wire:
// [magic][uvarint n]{[5 uvarints: fromEpoch toEpoch fromInserts toInserts]
// [u8 full][uvarint len][payload bytes]}*n.
func EncodeChain(recs []*Record) []byte {
	var buf bytes.Buffer
	buf.WriteString(chainMagic)
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf.Write(tmp[:n])
	}
	put(uint64(len(recs)))
	for _, rec := range recs {
		put(rec.FromEpoch)
		put(rec.ToEpoch)
		put(rec.FromInserts)
		put(rec.ToInserts)
		if rec.Full {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
		put(uint64(len(rec.Payload)))
		buf.Write(rec.Payload)
	}
	return buf.Bytes()
}

// DecodeChain parses an EncodeChain payload.
func DecodeChain(b []byte) ([]*Record, error) {
	if len(b) < len(chainMagic) || string(b[:len(chainMagic)]) != chainMagic {
		return nil, errors.New("odelta: bad chain magic")
	}
	r := bytes.NewReader(b[len(chainMagic):])
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > 1<<20 {
		return nil, errors.New("odelta: chain record count too large")
	}
	recs := make([]*Record, 0, n)
	for i := uint64(0); i < n; i++ {
		rec := &Record{}
		for _, dst := range []*uint64{&rec.FromEpoch, &rec.ToEpoch, &rec.FromInserts, &rec.ToInserts} {
			v, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, err
			}
			*dst = v
		}
		fb, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		rec.Full = fb == 1
		plen, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		if plen > uint64(r.Len()) {
			return nil, errors.New("odelta: chain payload length exceeds buffer")
		}
		rec.Payload = make([]byte, plen)
		if _, err := r.Read(rec.Payload); err != nil && plen > 0 {
			return nil, err
		}
		recs = append(recs, rec)
	}
	if r.Len() != 0 {
		return nil, errors.New("odelta: trailing bytes after chain")
	}
	return recs, nil
}
