// Package bloom implements the probabilistic set structures behind
// VisualPrint's uniqueness oracle: a counting Bloom filter with packed
// fixed-width counters and a low saturation point, and a plain (binary)
// Bloom filter used as the verification filter that suppresses false
// positives (paper section 3, Figure 8).
//
// Index derivation uses Kirsch–Mitzenmacher double hashing over the two
// words of a Murmur3 128-bit hash, so each filter needs exactly one hash
// evaluation per operation regardless of K.
package bloom

import (
	"bufio"
	"bytes"
	"cmp"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	mathbits "math/bits"
	"slices"

	"visualprint/internal/hash"
)

// Counting is a counting Bloom filter with n counters of a fixed bit width
// (the paper uses 10 bits, saturating at 1024). Counters saturate rather
// than wrap: "beyond which additional insertions of the same value have no
// effect".
type Counting struct {
	bits    uint     // counter width in bits (1..16)
	n       uint64   // number of counters
	k       int      // probes per element
	seed    uint32   // hash seed
	max     uint32   // saturation value = 2^bits - 1
	data    []uint64 // packed counter storage
	inserts uint64   // elements inserted (for load accounting)
}

// maxCells and maxK bound a filter's counters (or bits) and its probes per
// element: far past any useful setting, and small enough that neither the
// packed word count nor a decoded header can overflow or demand a huge
// allocation.
const maxCells, maxK = 1 << 48, 64

// countingWords validates a counting filter's shape and returns its packed
// word count.
func countingWords(n uint64, bits uint, k int) (uint64, error) {
	if n == 0 || n > maxCells || bits == 0 || bits > 16 || k <= 0 || k > maxK {
		return 0, errors.New("bloom: need 0 < n <= 2^48, 0 < bits <= 16, 0 < k <= 64")
	}
	return (n*uint64(bits) + 63) / 64, nil
}

// NewCounting creates a counting filter with n counters of the given bit
// width and k probes per element.
func NewCounting(n uint64, bits uint, k int, seed uint32) (*Counting, error) {
	words, err := countingWords(n, bits, k)
	if err != nil {
		return nil, err
	}
	return &Counting{
		bits: bits,
		n:    n,
		k:    k,
		seed: seed,
		max:  (1 << bits) - 1,
		data: make([]uint64, words),
	}, nil
}

// Clone returns a deep copy of the filter: one copy of its words.
func (c *Counting) Clone() *Counting {
	d := *c
	d.data = slices.Clone(c.data)
	return &d
}

// counterAt reads counter i from the packed array. A counter may straddle a
// word boundary.
func (c *Counting) counterAt(i uint64) uint32 {
	bitPos := i * uint64(c.bits)
	word := bitPos / 64
	off := bitPos % 64
	v := c.data[word] >> off
	if off+uint64(c.bits) > 64 {
		v |= c.data[word+1] << (64 - off)
	}
	return uint32(v) & c.max
}

// setCounterAt writes counter i.
func (c *Counting) setCounterAt(i uint64, val uint32) {
	val &= c.max
	bitPos := i * uint64(c.bits)
	word := bitPos / 64
	off := bitPos % 64
	mask := uint64(c.max) << off
	c.data[word] = (c.data[word] &^ mask) | (uint64(val) << off)
	if off+uint64(c.bits) > 64 {
		rem := off + uint64(c.bits) - 64
		hiMask := (uint64(1) << rem) - 1
		c.data[word+1] = (c.data[word+1] &^ hiMask) | (uint64(val) >> (64 - off))
	}
}

// Positions returns the k counter indices for item. The returned slice is
// freshly allocated; use PositionsInto on hot paths.
func (c *Counting) Positions(item []byte) []uint64 {
	out := make([]uint64, c.k)
	c.PositionsInto(item, out)
	return out
}

// PositionsInto computes the k counter indices for item into out, which must
// have length k.
func (c *Counting) PositionsInto(item []byte, out []uint64) {
	h1, h2 := hash.Sum128(item, c.seed)
	for i := 0; i < c.k; i++ {
		out[i] = (h1 + uint64(i)*h2) % c.n
	}
}

// Add increments the k counters for item (saturating) and returns the
// counter positions touched — the verification filter hashes these
// positions.
func (c *Counting) Add(item []byte) []uint64 {
	pos := c.Positions(item)
	c.AddAt(pos)
	return pos
}

// AddAt increments the counters at pre-computed positions (saturating),
// counting one inserted element. Combined with PositionsInto it is the
// allocation-free form of Add used by the oracle's ingest path.
func (c *Counting) AddAt(pos []uint64) {
	for _, p := range pos {
		v := c.counterAt(p)
		if v < c.max {
			c.setCounterAt(p, v+1)
		}
	}
	c.inserts++
}

// Count returns the estimated multiplicity of item: the minimum of its k
// counters (the count-min bound; never an underestimate absent saturation).
func (c *Counting) Count(item []byte) uint32 {
	pos := make([]uint64, c.k)
	c.PositionsInto(item, pos)
	return c.CountAt(pos)
}

// CountAt returns the minimum counter value over the given positions.
func (c *Counting) CountAt(pos []uint64) uint32 {
	min := c.max
	for _, p := range pos {
		if v := c.counterAt(p); v < min {
			min = v
		}
	}
	return min
}

// CountAtPartial returns the minimum counter over pos ignoring the single
// smallest counter — the "K-1 of K bits matching" relaxation used by the
// oracle's multiprobe false-negative recovery. It returns 0 if two or more
// counters are zero.
func (c *Counting) CountAtPartial(pos []uint64) uint32 {
	min1, min2 := c.max, c.max // two smallest
	for _, p := range pos {
		v := c.counterAt(p)
		if v < min1 {
			min1, min2 = v, min1
		} else if v < min2 {
			min2 = v
		}
	}
	return min2
}

// Saturation returns the maximum representable count.
func (c *Counting) Saturation() uint32 { return c.max }

// K returns the number of probes per element.
func (c *Counting) K() int { return c.k }

// NumCounters returns the number of counters.
func (c *Counting) NumCounters() uint64 { return c.n }

// Shape returns the parameters the filter was built with.
func (c *Counting) Shape() (n uint64, bits uint, k int, seed uint32) { return c.n, c.bits, c.k, c.seed }

// Inserts returns how many elements have been added.
func (c *Counting) Inserts() uint64 { return c.inserts }

// MemoryBytes returns the in-memory size of the counter array.
func (c *Counting) MemoryBytes() int64 { return int64(len(c.data) * 8) }

// FillRatio returns the fraction of nonzero counters, a hotspot diagnostic.
func (c *Counting) FillRatio() float64 {
	nz := uint64(0)
	for i := uint64(0); i < c.n; i++ {
		if c.counterAt(i) != 0 {
			nz++
		}
	}
	return float64(nz) / float64(c.n)
}

const countingMagic = "VPCB1\x00"

// WriteTo serializes the filter in a flat binary format.
func (c *Counting) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(v any) error {
		return binary.Write(bw, binary.LittleEndian, v)
	}
	if _, err := bw.WriteString(countingMagic); err != nil {
		return n, err
	}
	hdr := []any{uint32(c.bits), c.n, uint32(c.k), c.seed, c.inserts, uint64(len(c.data))}
	for _, v := range hdr {
		if err := write(v); err != nil {
			return n, err
		}
	}
	if err := write(c.data); err != nil {
		return n, err
	}
	if err := bw.Flush(); err != nil {
		return n, err
	}
	n = int64(len(countingMagic)) + 4 + 8 + 4 + 4 + 8 + 8 + int64(len(c.data)*8)
	return n, nil
}

// ReadCounting deserializes a filter written by WriteTo. It reads exactly
// the serialized bytes, so several filters can be read back-to-back from one
// stream, and allocates the counter words as they arrive, so a header
// claiming a huge filter costs no more than the bytes actually sent.
func ReadCounting(r io.Reader) (*Counting, error) {
	magic := make([]byte, len(countingMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, err
	}
	if string(magic) != countingMagic {
		return nil, fmt.Errorf("bloom: bad magic %q", magic)
	}
	var bits, k, seed uint32
	var n, inserts, words uint64
	for _, v := range []any{&bits, &n, &k, &seed, &inserts, &words} {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return nil, err
		}
	}
	if want, err := countingWords(n, uint(bits), int(k)); err != nil || words != want {
		return nil, cmp.Or(err, errors.New("bloom: corrupt counting filter header"))
	}
	data, err := readWords(r, words)
	if err != nil {
		return nil, err
	}
	return &Counting{bits: uint(bits), n: n, k: int(k), seed: seed, max: 1<<bits - 1, data: data, inserts: inserts}, nil
}

// readWords reads n little-endian words in bounded chunks, growing the result
// only as bytes arrive.
func readWords(r io.Reader, n uint64) ([]uint64, error) {
	var data []uint64
	for uint64(len(data)) < n {
		chunk := make([]uint64, min(n-uint64(len(data)), 1<<13))
		if err := binary.Read(r, binary.LittleEndian, chunk); err != nil {
			return nil, err
		}
		data = append(data, chunk...)
	}
	return data, nil
}

// Filter is a plain binary Bloom filter; VisualPrint uses one as the
// verification filter that stores hashed *bit positions* of primary
// insertions.
type Filter struct {
	m    uint64 // bits
	k    int
	seed uint32
	data []uint64
}

// filterWords validates a binary filter's shape and returns its word count.
func filterWords(m uint64, k int) (uint64, error) {
	if m == 0 || m > maxCells || k <= 0 || k > maxK {
		return 0, errors.New("bloom: need 0 < m <= 2^48 and 0 < k <= 64")
	}
	return (m + 63) / 64, nil
}

// NewFilter creates a binary Bloom filter with m bits and k probes.
func NewFilter(m uint64, k int, seed uint32) (*Filter, error) {
	words, err := filterWords(m, k)
	if err != nil {
		return nil, err
	}
	return &Filter{m: m, k: k, seed: seed, data: make([]uint64, words)}, nil
}

// Clone returns a deep copy of the filter: one copy of its words.
func (f *Filter) Clone() *Filter {
	g := *f
	g.data = slices.Clone(f.data)
	return &g
}

// Add inserts item.
func (f *Filter) Add(item []byte) {
	h1, h2 := hash.Sum128(item, f.seed)
	for i := 0; i < f.k; i++ {
		p := (h1 + uint64(i)*h2) % f.m
		f.data[p/64] |= 1 << (p % 64)
	}
}

// Test reports whether item may be in the set (definitely not when false).
func (f *Filter) Test(item []byte) bool {
	h1, h2 := hash.Sum128(item, f.seed)
	for i := 0; i < f.k; i++ {
		p := (h1 + uint64(i)*h2) % f.m
		if f.data[p/64]&(1<<(p%64)) == 0 {
			return false
		}
	}
	return true
}

// MemoryBytes returns the in-memory size of the bit array.
func (f *Filter) MemoryBytes() int64 { return int64(len(f.data) * 8) }

const filterMagic = "VPBF1\x00"

// WriteTo serializes the filter.
func (f *Filter) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(filterMagic); err != nil {
		return 0, err
	}
	for _, v := range []any{f.m, uint32(f.k), f.seed, uint64(len(f.data))} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return 0, err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, f.data); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return int64(len(filterMagic)) + 8 + 4 + 4 + 8 + int64(len(f.data)*8), nil
}

// ReadFilter deserializes a filter written by WriteTo. Like ReadCounting it
// consumes exactly the serialized bytes and grows its words as they arrive.
func ReadFilter(r io.Reader) (*Filter, error) {
	magic := make([]byte, len(filterMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, err
	}
	if string(magic) != filterMagic {
		return nil, fmt.Errorf("bloom: bad magic %q", magic)
	}
	var k uint32
	var m, words uint64
	var seed uint32
	for _, v := range []any{&m, &k, &seed, &words} {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return nil, err
		}
	}
	if want, err := filterWords(m, int(k)); err != nil || words != want {
		return nil, cmp.Or(err, errors.New("bloom: corrupt filter header"))
	}
	data, err := readWords(r, words)
	if err != nil {
		return nil, err
	}
	return &Filter{m: m, k: int(k), seed: seed, data: data}, nil
}

// GzipBytes serializes any WriteTo-able value through gzip and returns the
// compressed bytes. The paper ships oracle filters GZIP-compressed, noting
// that "compressibility reduces as the Bloom filter becomes more saturated".
func GzipBytes(wt io.WriterTo) ([]byte, error) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := wt.WriteTo(zw); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// MergeFrom adds other's counters into c (same n, bits, k, seed), saturating
// per counter. Because counters only ever increment and saturate at max, a
// counter's value is min(max, #increments); min(max, a+b) therefore equals
// the value the counter would hold had every element of both filters been
// inserted into one — the merged filter is bitwise identical to sequential
// insertion, which is what lets a sharded oracle be reassembled exactly from
// per-shard oracles (see core.Merge).
func (c *Counting) MergeFrom(other *Counting) error {
	if other.n != c.n || other.bits != c.bits || other.k != c.k || other.seed != c.seed {
		return errors.New("bloom: merge between incompatible counting filters")
	}
	for i := uint64(0); i < c.n; i++ {
		ov := other.counterAt(i)
		if ov == 0 {
			continue
		}
		sum := c.counterAt(i) + ov
		if sum > c.max {
			sum = c.max
		}
		c.setCounterAt(i, sum)
	}
	c.inserts += other.inserts
	return nil
}

// MergeFrom ORs other's bits into f (same m, k, seed). Set-union of bit
// positions, so the result is identical to inserting both filters' elements
// into one.
func (f *Filter) MergeFrom(other *Filter) error {
	if other.m != f.m || other.k != f.k || other.seed != f.seed {
		return errors.New("bloom: merge between incompatible filters")
	}
	for i := range f.data {
		f.data[i] |= other.data[i]
	}
	return nil
}

// Counter returns the value of counter i — the cell-level read used by the
// odelta sparse encoder.
func (c *Counting) Counter(i uint64) uint32 { return c.counterAt(i) }

// SetCounter overwrites counter i — the cell-level write the odelta decoder
// uses to replay a sparse delta (records carry absolute new values, not
// increments, so replay is idempotent).
func (c *Counting) SetCounter(i uint64, v uint32) { c.setCounterAt(i, v) }

// SetInserts overwrites the insert count; odelta replay sets it to the
// delta's recorded post-state so a reconstructed filter serializes
// byte-identically to the original.
func (c *Counting) SetInserts(n uint64) { c.inserts = n }

// DiffCells calls fn(i, newValue) for every counter whose value differs
// between old (an earlier snapshot: same n, bits, k, seed) and c, in
// ascending index order. The scan is word-granular — counters only ever
// increment, so after a small ingest batch almost every packed word is
// unchanged and is skipped with one comparison.
func (c *Counting) DiffCells(old *Counting, fn func(i uint64, v uint32)) error {
	if old.n != c.n || old.bits != c.bits || old.k != c.k || old.seed != c.seed {
		return errors.New("bloom: diff between incompatible counting filters")
	}
	// lastDone tracks the highest counter index already emitted, so a
	// counter straddling two differing words is reported once.
	lastDone := int64(-1)
	for w := range c.data {
		if c.data[w] == old.data[w] {
			continue
		}
		// Counter indices overlapping word w.
		first := uint64(w) * 64 / uint64(c.bits)
		last := (uint64(w)*64 + 63) / uint64(c.bits)
		if last >= c.n {
			last = c.n - 1
		}
		for i := first; i <= last; i++ {
			if int64(i) <= lastDone {
				continue
			}
			nv := c.counterAt(i)
			if nv != old.counterAt(i) {
				fn(i, nv)
			}
			lastDone = int64(i)
		}
	}
	return nil
}

// SetBit sets bit i — the decoder-side write for odelta's verify-filter
// deltas (bits are only ever set, so deltas are lists of newly-set bits).
func (f *Filter) SetBit(i uint64) { f.data[i/64] |= 1 << (i % 64) }

// NumBits returns the filter's bit count m.
func (f *Filter) NumBits() uint64 { return f.m }

// Shape returns the parameters the filter was built with.
func (f *Filter) Shape() (m uint64, k int, seed uint32) { return f.m, f.k, f.seed }

// DiffBits calls fn(i) for every bit set in f but not in old (same m, k,
// seed), in ascending order. Binary Bloom bits are monotone, so this is the
// complete delta between the two versions.
func (f *Filter) DiffBits(old *Filter, fn func(i uint64)) error {
	if old.m != f.m || old.k != f.k || old.seed != f.seed {
		return errors.New("bloom: diff between incompatible filters")
	}
	for w := range f.data {
		x := f.data[w] &^ old.data[w]
		for x != 0 {
			fn(uint64(w)*64 + uint64(mathbits.TrailingZeros64(x)))
			x &= x - 1
		}
	}
	return nil
}

// PositionsKey encodes a sorted-independent byte key from counter positions,
// used by the oracle to feed the verification filter:
// hash(concat(bitPositions)).
func PositionsKey(pos []uint64) []byte {
	return AppendPositionsKey(make([]byte, 0, 8*len(pos)), pos)
}

// AppendPositionsKey is PositionsKey appending into dst (truncated first),
// the allocation-free form for hot paths that reuse one key buffer.
func AppendPositionsKey(dst []byte, pos []uint64) []byte {
	dst = dst[:0]
	var tmp [8]byte
	for _, p := range pos {
		binary.LittleEndian.PutUint64(tmp[:], p)
		dst = append(dst, tmp[:]...)
	}
	return dst
}
