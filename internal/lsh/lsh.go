// Package lsh implements E2LSH — Euclidean locality-sensitive hashing based
// on 2-stable (Gaussian) random projections (Datar et al., SoCG 2004; Andoni
// & Indyk 2004) — as used twice in VisualPrint: as the server-side
// approximate nearest-neighbor lookup table mapping keypoints to 3D
// positions, and as the locality-sensitive front end of the uniqueness
// oracle's Bloom filters.
//
// A descriptor is projected onto L x M random hyperplanes whose coefficients
// are drawn from a Gaussian (2-stable) distribution, so projected distances
// preserve the L2 norm in expectation. Each projection is quantized with
// width W; the M quantized values form the bucket coordinate of one of the L
// tables.
//
// The query path is allocation-free in steady state: the descriptor bytes
// are widened to float32 once per query (not once per projection row — at
// the paper's L=10, M=7 that would be a 70x redundant conversion), bucket
// coordinates, probe perturbations and table keys run through per-query
// scratch buffers recycled via a sync.Pool, and QueryInto appends into a
// caller-owned candidate slice. See DESIGN.md "Performance".
package lsh

import (
	"cmp"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"visualprint/internal/dist"
	"visualprint/internal/hash"
)

// Params configures an E2LSH family. The paper's empirically tuned values
// for the uniqueness oracle are L=10, M=7, W=500 (section 3).
type Params struct {
	L    int     // number of hash tables (independent bucket families)
	M    int     // projections (quantized dimensions) per table
	W    float64 // quantization width
	Dim  int     // input dimensionality (128 for SIFT)
	Seed int64   // RNG seed for the projection family
}

// DefaultParams returns the paper's oracle parameterization for 128-d SIFT
// descriptors.
func DefaultParams() Params {
	return Params{L: 10, M: 7, W: 500, Dim: 128, Seed: 1}
}

// maxRows and maxCoeffs bound the projection family NewHasher draws — L·M
// rows of Dim coefficients — far past any useful setting (the paper's is 70
// rows of 128), so a decoder reading Params from a header cannot be talked
// into a huge allocation.
const maxRows, maxCoeffs = 1 << 12, 1 << 18

// Validate reports whether p is usable.
func (p Params) Validate() error {
	if p.L <= 0 || p.M <= 0 || !(p.W > 0) || math.IsInf(p.W, 1) || p.Dim <= 0 {
		return errors.New("lsh: L, M, W and Dim must be positive and finite")
	}
	if p.L > maxRows || p.M > maxRows || p.Dim > maxCoeffs || p.L*p.M > maxRows || p.L*p.M*p.Dim > maxCoeffs {
		return errors.New("lsh: projection family too large")
	}
	return nil
}

// Hasher maps byte-valued descriptors to quantized bucket coordinates. It is
// deterministic for a given Params (including Seed) and safe for concurrent
// use once constructed.
type Hasher struct {
	p    Params
	proj [][]float32 // L*M rows of Dim Gaussian coefficients
	offs []float64   // L*M uniform offsets in [0, W)
}

// NewHasher builds the random projection family for p.
func NewHasher(p Params) (*Hasher, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	n := p.L * p.M
	h := &Hasher{p: p, proj: make([][]float32, n), offs: make([]float64, n)}
	for i := 0; i < n; i++ {
		row := make([]float32, p.Dim)
		for d := range row {
			row[d] = float32(rng.NormFloat64())
		}
		h.proj[i] = row
		h.offs[i] = rng.Float64() * p.W
	}
	return h, nil
}

// Params returns the parameter set the hasher was built with.
func (h *Hasher) Params() Params { return h.p }

// DescriptorVec widens descriptor bytes to float32 into dst (reusing its
// capacity), the one-per-query conversion both hot paths share. The result
// multiplies bit-identically to converting each byte inside the projection
// loop, so bucket coordinates are unchanged.
func DescriptorVec(desc []byte, dst []float32) []float32 {
	dst = dst[:0]
	for _, v := range desc {
		dst = append(dst, float32(v))
	}
	return dst
}

// Bucket computes the M quantized projection coordinates of desc for the
// given table (0 <= table < L). The desc length must equal Dim.
func (h *Hasher) Bucket(desc []byte, table int) []int32 {
	out := make([]int32, h.p.M)
	h.BucketInto(desc, table, out)
	return out
}

// BucketInto is Bucket without allocation; out must have length M. It
// converts every descriptor byte once per projection row; hot paths that
// hash the same descriptor into several tables should convert once with
// DescriptorVec and use BucketVecInto instead.
func (h *Hasher) BucketInto(desc []byte, table int, out []int32) {
	base := table * h.p.M
	for m := 0; m < h.p.M; m++ {
		row := h.proj[base+m]
		var acc float32
		for d, v := range desc {
			acc += row[d] * float32(v)
		}
		out[m] = int32(math.Floor((float64(acc) + h.offs[base+m]) / h.p.W))
	}
}

// BucketVecInto is BucketInto over a pre-widened descriptor (DescriptorVec).
// Identical arithmetic, so the coordinates match BucketInto bit for bit.
func (h *Hasher) BucketVecInto(vec []float32, table int, out []int32) {
	base := table * h.p.M
	for m := 0; m < h.p.M; m++ {
		row := h.proj[base+m]
		var acc float32
		for d, v := range vec {
			acc += row[d] * v
		}
		out[m] = int32(math.Floor((float64(acc) + h.offs[base+m]) / h.p.W))
	}
}

// Key collapses a bucket coordinate into a 64-bit table key using Murmur3
// seeded by the table index — the "cryptographic hash g_i from the same
// family (Murmur-3)" step of Figure 8.
func (h *Hasher) Key(table int, coords []int32) uint64 {
	return h.KeyInto(table, coords, make([]byte, 4*len(coords)))
}

// KeyInto is Key using buf as the serialization scratch; buf must have
// length (not just capacity) of at least 4*len(coords).
func (h *Hasher) KeyInto(table int, coords []int32, buf []byte) uint64 {
	buf = buf[:4*len(coords)]
	for i, c := range coords {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(c))
	}
	return hash.Sum64(buf, uint32(table)*0x9e3779b9+1)
}

// Probes returns the multi-probe set for a bucket coordinate: the exact
// bucket first, followed by the 2M off-by-one perturbations (each coordinate
// +-1). This is the paper's borrowing from multi-probe LSH (Lv et al., VLDB
// 2007) to reduce quantization false negatives.
//
// Probes allocates its result; the in-place query paths enumerate the same
// perturbations by mutating one coordinate at a time instead (the probe
// order — exact, then per coordinate -1 before +1 — is part of the query
// contract, since it fixes candidate dedup order).
func (h *Hasher) Probes(coords []int32) [][]int32 {
	out := make([][]int32, 0, 2*len(coords)+1)
	out = append(out, append([]int32(nil), coords...))
	for i := range coords {
		for _, d := range []int32{-1, 1} {
			p := append([]int32(nil), coords...)
			p[i] += d
			out = append(out, p)
		}
	}
	return out
}

// Candidate is a query result from the Index.
type Candidate struct {
	ID     int // insertion order identifier
	DistSq int // squared Euclidean distance to the query
	// Probe is the ordinal of the bucket probe at which the candidate was
	// first collected: table-major over the probe sequence (exact bucket,
	// then per coordinate -1/+1), so 0 <= Probe < L*(2M+1). Together with
	// the candidate's insertion order it reconstructs the dedup order of a
	// query — the property the sharded scatter-gather merge relies on to
	// reproduce a single index's candidate ranking across disjoint
	// sub-indexes (see server.Router).
	Probe int32
}

// compareCandidates orders by ascending distance; QueryInto ranks stably, so
// equal distances keep candidate dedup order (table, then probe, then
// in-bucket insertion order) — the deterministic tie-break the serialized
// index round-trip and the parallel Locate fan-out both rely on.
func compareCandidates(a, b Candidate) int { return cmp.Compare(a.DistSq, b.DistSq) }

// queryScratch is the reusable per-query state: the widened descriptor, a
// bucket-coordinate buffer mutated in place for multi-probing, the key
// serialization buffer, and the dedup stamps. Pooled (scratchPool) so a
// steady-state query allocates nothing.
//
// Dedup is an epoch-stamped slice indexed by candidate id rather than a
// map: a query bumps epoch and treats seen[id] == epoch as "already
// collected", so there is nothing to clear between queries and the hot
// membership check is a bounds-checked load instead of a map probe.
type queryScratch struct {
	vec    []float32
	coords []int32
	key    []byte
	seen   []uint32
	epoch  uint32
}

// Index is an LSH-backed approximate nearest-neighbor index over byte
// descriptors, the structure behind the server's keypoint-to-3D-position
// lookup table. IDs are assigned in insertion order; the caller keeps its
// own id -> payload mapping.
//
// An *Index is a length-bounded read handle over bucket tables it shares with
// every index extended from it. Extend appends descriptors to the shared
// tables and returns a longer handle; the receiver keeps answering exactly as
// before, because a query only sees ids below its own Len — bucket ids are
// strictly increasing, so each bucket is cut at the first id past Len, which
// is exactly the bucket a fresh index of those Len descriptors would hold.
//
// Concurrency: any number of queries (Query, QueryInto, Len, MemoryBytes,
// WriteTo) on any handles may run concurrently with each other and with one
// Extend or Insert of the newest handle — the server's lock-free Locate relies
// on this. Extend and Insert must be serialized with each other, and Insert
// (which grows its receiver in place) also with readers of that handle. Query
// results are deterministic for a given handle.
type Index struct {
	h *Hasher
	t *tables
	// descs and next are this handle's share of the lineage's append-only
	// storage: extensions fill their spare capacity past len, which this
	// handle never reads.
	descs [][]byte
	// next chains each bucket in insertion order: next[id*L+t] is 1 + the
	// id after id in its table-t bucket, 0 for none. The writer stores a
	// link atomically because older handles hold the id it links from;
	// their readers see no link or one past their own Len, and stop either
	// way.
	next []int32
	// nBuckets counts the buckets this handle sees.
	nBuckets int
}

// tables is the storage shared by every handle of one index.
type tables struct {
	// maps holds one open-addressing table per LSH table, from bucket key to
	// the bucket's first id. Slots are only ever filled, never changed;
	// outgrowing a table publishes a rehashed copy, and a reader holding the
	// old one still finds every bucket its handle can see.
	maps []atomic.Pointer[[]slot]
	used []int // filled slots per table: writer state
	// n is the newest handle's Len, the only length Extend accepts: writer
	// state, serialized with Extend.
	n int
}

// slot is one bucket's entry in a table.
type slot struct {
	key  uint64
	head int32 // first id + 1, stored atomically after key; 0 marks a free slot
	tail int32 // last id: writer state, never read by queries
}

// scratchPool recycles *queryScratch values across the queries (and
// inserts) of every index: one pool, so a query fanned out over many
// indexes (a sharded venue) warms the same scratch set as one over a
// single index.
var scratchPool sync.Pool

// NewIndex creates an empty index with the given parameters.
func NewIndex(p Params) (*Index, error) {
	h, err := NewHasher(p)
	if err != nil {
		return nil, err
	}
	t := &tables{maps: make([]atomic.Pointer[[]slot], p.L), used: make([]int, p.L)}
	for i := range t.maps {
		slots := make([]slot, 8)
		t.maps[i].Store(&slots)
	}
	return &Index{h: h, t: t}, nil
}

// Len returns the number of indexed descriptors.
func (ix *Index) Len() int { return len(ix.descs) }

// find returns the slot of key — or the free slot it would take — and the
// head it loaded there (0 for free). Readers and the writer share it: a free
// slot is only ever filled with some key, so a reader that met one (and
// reads no further) never mistakes a later fill for its own bucket.
func find(slots []slot, key uint64) (*slot, int32) {
	mask := uint64(len(slots) - 1)
	for i := key & mask; ; i = (i + 1) & mask {
		if h := atomic.LoadInt32(&slots[i].head); h == 0 || slots[i].key == key {
			return &slots[i], h
		}
	}
}

// after returns the id following id in its table-t bucket, -1 at the end of
// the bucket as this handle sees it.
func (ix *Index) after(id int32, t int) int32 {
	return ix.visible(atomic.LoadInt32(&ix.next[int(id)*ix.h.p.L+t]))
}

// visible decodes a stored 1 + id (0 for none) into the id, or -1 when there
// is none or this handle does not see it (id >= Len).
func (ix *Index) visible(stored int32) int32 {
	if id := stored - 1; id >= 0 && int(id) < len(ix.descs) {
		return id
	}
	return -1
}

// eachBucket calls fn with the key and ids of every table-t bucket this
// handle sees; ids is reused between calls.
func (ix *Index) eachBucket(t int, fn func(key uint64, ids []int32)) {
	slots := *ix.t.maps[t].Load()
	var ids []int32
	for i := range slots {
		ids = ids[:0]
		for id := ix.visible(atomic.LoadInt32(&slots[i].head)); id >= 0; id = ix.after(id, t) {
			ids = append(ids, id)
		}
		if len(ids) > 0 {
			fn(slots[i].key, ids)
		}
	}
}

// getScratch returns a cleared scratch sized for this index's parameters.
func (ix *Index) getScratch() *queryScratch {
	s, _ := scratchPool.Get().(*queryScratch)
	if p := ix.h.p; s == nil || len(s.coords) != p.M || cap(s.vec) < p.Dim {
		s = &queryScratch{
			vec:    make([]float32, 0, p.Dim),
			coords: make([]int32, p.M),
			key:    make([]byte, 4*p.M),
		}
	}
	s.epoch++
	if s.epoch == 0 {
		// Wrapped after 2^32 queries on this scratch: stale stamps could
		// alias the new epoch, so reset them once.
		clear(s.seen)
		s.epoch = 1
	}
	return s
}

// Extend returns an index holding ix's descriptors followed by descs, which
// are retained (callers must not modify them). ix is unchanged and may be
// queried concurrently. Only the newest index of a lineage — the last one
// returned by Extend, or grown by Insert — may be extended; nothing is
// written unless every descriptor is valid.
func (ix *Index) Extend(descs [][]byte) (*Index, error) {
	if len(ix.descs) != ix.t.n {
		return nil, errors.New("lsh: only the newest index may be extended")
	}
	for _, d := range descs {
		if len(d) != ix.h.p.Dim {
			return nil, errors.New("lsh: descriptor dimension mismatch")
		}
	}
	next := *ix
	L := ix.h.p.L
	next.next = append(next.next, make([]int32, L*len(descs))...)
	s := ix.getScratch()
	defer scratchPool.Put(s)
	for _, desc := range descs {
		id := int32(len(next.descs))
		next.descs = append(next.descs, desc)
		s.vec = DescriptorVec(desc, s.vec)
		for t := 0; t < L; t++ {
			ix.h.BucketVecInto(s.vec, t, s.coords)
			if next.add(t, ix.h.KeyInto(t, s.coords, s.key), id) {
				next.nBuckets++
			}
		}
	}
	ix.t.n = len(next.descs)
	return &next, nil
}

// Insert adds a descriptor to ix in place and returns its id: Extend for a
// single owner building an index. The slice is retained; the caller must not
// modify it afterwards.
func (ix *Index) Insert(desc []byte) (int, error) {
	next, err := ix.Extend([][]byte{desc})
	if err != nil {
		return 0, err
	}
	*ix = *next
	return ix.Len() - 1, nil
}

// add appends id, which must exceed every id already in the bucket, to the
// table-t bucket at key: a link from the bucket's tail, or a new slot (and
// then it reports true).
func (ix *Index) add(t int, key uint64, id int32) bool {
	slots := *ix.t.maps[t].Load()
	s, h := find(slots, key)
	if h != 0 {
		atomic.StoreInt32(&ix.next[int(s.tail)*ix.h.p.L+t], id+1)
		s.tail = id
		return false
	}
	if 4*(ix.t.used[t]+1) > 3*len(slots) {
		// Past 3/4 full: publish a rehashed copy twice the size.
		grown := make([]slot, 2*len(slots))
		for _, sl := range slots {
			if sl.head != 0 {
				g, _ := find(grown, sl.key)
				*g = sl
			}
		}
		ix.t.maps[t].Store(&grown)
		s, _ = find(grown, key)
	}
	s.key, s.tail = key, id
	atomic.StoreInt32(&s.head, id+1)
	ix.t.used[t]++
	return true
}

// QueryOptions tunes a nearest-neighbor query.
type QueryOptions struct {
	// MaxCandidates caps returned candidates (0 = no cap).
	MaxCandidates int
	// MultiProbe also checks the off-by-one buckets in every table.
	MultiProbe bool
	// MaxDistSq, when positive, drops candidates whose squared distance
	// exceeds it. Under MaxCandidates = n the result is then the n best
	// with the farther ones removed, and the cut-off bounds the scoring of
	// every candidate from the first, not only once n are held.
	MaxDistSq int
}

// Query returns candidate neighbors of desc from all L tables, de-duplicated
// and sorted by ascending Euclidean distance (ties keep dedup order), the
// nearest MaxCandidates of them when that is set.
func (ix *Index) Query(desc []byte, opt QueryOptions) ([]Candidate, error) {
	return ix.QueryInto(desc, opt, nil)
}

// QueryInto is Query appending into dst (which is truncated first and may be
// nil). Reusing dst across queries makes the steady-state query path free of
// heap allocations — the property the server's per-keypoint Locate fan-out
// depends on, pinned by TestIndexQuerySteadyStateZeroAllocs.
//
// Candidate order is deterministic: dedup order is table order, then probe
// order (exact bucket, then per coordinate -1/+1), then in-bucket insertion
// order; the ranking is stable on ascending distance. Uncapped, that is a
// stable sort of everything collected. With MaxCandidates = n > 0 the n best
// are kept sorted while collecting (see collect) — the same candidates in
// the same order as sorting everything and truncating, without scoring most
// of the losers in full or sorting them at all.
func (ix *Index) QueryInto(desc []byte, opt QueryOptions, dst []Candidate) ([]Candidate, error) {
	if len(desc) != ix.h.p.Dim {
		return nil, errors.New("lsh: descriptor dimension mismatch")
	}
	s := ix.getScratch()
	defer scratchPool.Put(s)
	s.vec = DescriptorVec(desc, s.vec)
	dst = dst[:0]
	limit := math.MaxInt
	if opt.MaxDistSq > 0 && opt.MaxDistSq < math.MaxInt {
		limit = opt.MaxDistSq + 1
	}
	probesPerTable := int32(1)
	if opt.MultiProbe {
		probesPerTable += 2 * int32(ix.h.p.M)
	}
	for t := 0; t < ix.h.p.L; t++ {
		ix.h.BucketVecInto(s.vec, t, s.coords)
		ord := int32(t) * probesPerTable
		dst = ix.collect(t, ord, desc, s, dst, opt.MaxCandidates, limit)
		if opt.MultiProbe {
			// Off-by-one perturbations, enumerated by mutating one
			// coordinate at a time — same order as Probes, no allocation.
			for m := range s.coords {
				orig := s.coords[m]
				s.coords[m] = orig - 1
				dst = ix.collect(t, ord+1+2*int32(m), desc, s, dst, opt.MaxCandidates, limit)
				s.coords[m] = orig + 1
				dst = ix.collect(t, ord+2+2*int32(m), desc, s, dst, opt.MaxCandidates, limit)
				s.coords[m] = orig
			}
		}
	}
	if opt.MaxCandidates <= 0 {
		slices.SortStableFunc(dst, compareCandidates)
	}
	return dst, nil
}

// collect adds the not-yet-seen candidates of one bucket probe closer than
// gate (a squared distance, math.MaxInt for none), stamping each with the
// probe ordinal it was first found at. With n <= 0 it appends them in
// collection order. With n > 0, dst is the sorted n best so far: a
// candidate must beat gate to enter, and once n are held the n-th distance,
// so it is scored by dist.SqLimit, which gives up as soon as the partial sum
// reaches that limit. A tie with the n-th loses — it arrived later, which
// is where a stable sort would have put it — and an entering candidate goes
// after any equal distance already held, for the same reason.
func (ix *Index) collect(table int, ord int32, desc []byte, s *queryScratch, dst []Candidate, n, gate int) []Candidate {
	_, head := find(*ix.t.maps[table].Load(), ix.h.KeyInto(table, s.coords, s.key))
	for id := ix.visible(head); id >= 0; id = ix.after(id, table) {
		if int(id) >= len(s.seen) {
			// Ids are dense insertion indices, so size the stamps to the
			// index once; steady-state queries never regrow.
			grown := make([]uint32, len(ix.descs))
			copy(grown, s.seen)
			s.seen = grown
		} else if s.seen[id] == s.epoch {
			continue
		}
		s.seen[id] = s.epoch
		if n <= 0 {
			if d := dist.Sq(desc, ix.descs[id]); d < gate {
				dst = append(dst, Candidate{ID: int(id), DistSq: d, Probe: ord})
			}
			continue
		}
		limit := gate
		if len(dst) == n {
			limit = dst[n-1].DistSq
		}
		d := dist.SqLimit(desc, ix.descs[id], limit)
		if d >= limit {
			continue
		}
		if len(dst) < n {
			dst = append(dst, Candidate{})
		}
		i := len(dst) - 1
		for ; i > 0 && dst[i-1].DistSq > d; i-- {
			dst[i] = dst[i-1]
		}
		dst[i] = Candidate{ID: int(id), DistSq: d, Probe: ord}
	}
	return dst
}

// MemoryBytes estimates the in-memory footprint of the index: the L bucket
// tables (key + id entries, with map overhead) plus the retained descriptor
// bytes — as a fresh index of Len descriptors would hold them, in which every
// id sits in one bucket per table. This drives the Figure 15
// client-footprint comparison, where conventional LSH is shown to cost a
// large multiple of the raw data due to the L-fold replication.
func (ix *Index) MemoryBytes() int64 {
	// Per bucket: 8-byte key + slice header (24) + map entry overhead
	// (~16); per id and table: 4 bytes; per descriptor: its bytes and a
	// slice header.
	n, p := int64(len(ix.descs)), ix.h.p
	return int64(ix.nBuckets)*(8+24+16) + n*int64(p.L)*4 + n*(int64(p.Dim)+24)
}
