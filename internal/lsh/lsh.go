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

// Validate reports whether p is usable.
func (p Params) Validate() error {
	if p.L <= 0 || p.M <= 0 || p.W <= 0 || p.Dim <= 0 {
		return errors.New("lsh: L, M, W and Dim must be positive")
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
// serialization buffer, and the dedup stamps. Pooled on the Index so a
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
// Concurrency: the read path (Query, QueryInto, Len, MemoryBytes, Hasher)
// touches only immutable per-query state plus the tables/descs slices and
// maps, so any number of Query calls may run concurrently — the server's
// parallel Locate fan-out relies on this (scratch state is pooled, and
// sync.Pool is safe for concurrent use). Insert mutates the tables and must
// be externally serialized against both other Inserts and all readers (the
// server's Database guards the index with an RWMutex: Ingest takes the write
// lock, Locate the read lock). Query results are deterministic for a given
// index state, which is what keeps the parallel and serial Locate paths
// bit-identical.
type Index struct {
	h      *Hasher
	tables []map[uint64][]int32
	descs  [][]byte

	// scratch recycles *queryScratch values across queries (and inserts).
	// Never serialized; the zero value is ready to use.
	scratch sync.Pool
}

// NewIndex creates an empty index with the given parameters.
func NewIndex(p Params) (*Index, error) {
	h, err := NewHasher(p)
	if err != nil {
		return nil, err
	}
	tables := make([]map[uint64][]int32, p.L)
	for i := range tables {
		tables[i] = make(map[uint64][]int32)
	}
	return &Index{h: h, tables: tables}, nil
}

// Hasher exposes the underlying projection family (shared with the oracle).
func (ix *Index) Hasher() *Hasher { return ix.h }

// Len returns the number of indexed descriptors.
func (ix *Index) Len() int { return len(ix.descs) }

// getScratch returns a cleared scratch sized for this index's parameters.
func (ix *Index) getScratch() *queryScratch {
	s, _ := ix.scratch.Get().(*queryScratch)
	if s == nil {
		p := ix.h.p
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

// Insert adds a descriptor and returns its id. The slice is retained; the
// caller must not modify it afterwards.
func (ix *Index) Insert(desc []byte) (int, error) {
	if len(desc) != ix.h.p.Dim {
		return 0, errors.New("lsh: descriptor dimension mismatch")
	}
	id := len(ix.descs)
	ix.descs = append(ix.descs, desc)
	s := ix.getScratch()
	defer ix.scratch.Put(s)
	s.vec = DescriptorVec(desc, s.vec)
	for t := 0; t < ix.h.p.L; t++ {
		ix.h.BucketVecInto(s.vec, t, s.coords)
		k := ix.h.KeyInto(t, s.coords, s.key)
		ix.tables[t][k] = append(ix.tables[t][k], int32(id))
	}
	return id, nil
}

// QueryOptions tunes a nearest-neighbor query.
type QueryOptions struct {
	// MaxCandidates caps returned candidates (0 = no cap).
	MaxCandidates int
	// MultiProbe also checks the off-by-one buckets in every table.
	MultiProbe bool
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
	defer ix.scratch.Put(s)
	s.vec = DescriptorVec(desc, s.vec)
	dst = dst[:0]
	probesPerTable := int32(1)
	if opt.MultiProbe {
		probesPerTable += 2 * int32(ix.h.p.M)
	}
	for t := 0; t < ix.h.p.L; t++ {
		ix.h.BucketVecInto(s.vec, t, s.coords)
		ord := int32(t) * probesPerTable
		dst = ix.collect(t, ord, desc, s, dst, opt.MaxCandidates)
		if opt.MultiProbe {
			// Off-by-one perturbations, enumerated by mutating one
			// coordinate at a time — same order as Probes, no allocation.
			for m := range s.coords {
				orig := s.coords[m]
				s.coords[m] = orig - 1
				dst = ix.collect(t, ord+1+2*int32(m), desc, s, dst, opt.MaxCandidates)
				s.coords[m] = orig + 1
				dst = ix.collect(t, ord+2+2*int32(m), desc, s, dst, opt.MaxCandidates)
				s.coords[m] = orig
			}
		}
	}
	if opt.MaxCandidates <= 0 {
		slices.SortStableFunc(dst, compareCandidates)
	}
	return dst, nil
}

// collect adds the not-yet-seen candidates of one bucket probe, stamping
// each with the probe ordinal it was first found at. With n <= 0 it appends
// them in collection order. With n > 0, dst is the sorted n best so far:
// once n are held, a candidate must beat the n-th distance to enter, so it
// is scored by dist.SqLimit, which gives up as soon as the partial sum
// reaches that distance. A tie with the n-th loses — it arrived later, which
// is where a stable sort would have put it — and an entering candidate goes
// after any equal distance already held, for the same reason.
func (ix *Index) collect(table int, ord int32, desc []byte, s *queryScratch, dst []Candidate, n int) []Candidate {
	k := ix.h.KeyInto(table, s.coords, s.key)
	for _, id := range ix.tables[table][k] {
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
			dst = append(dst, Candidate{ID: int(id), DistSq: dist.Sq(desc, ix.descs[id]), Probe: ord})
			continue
		}
		limit := math.MaxInt
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
// bytes. This drives the Figure 15 client-footprint comparison, where
// conventional LSH is shown to cost a large multiple of the raw data due to
// the L-fold replication.
func (ix *Index) MemoryBytes() int64 {
	var total int64
	for _, t := range ix.tables {
		// Per bucket: 8-byte key + slice header (24) + map entry overhead
		// (~16); per entry: 4 bytes id.
		total += int64(len(t)) * (8 + 24 + 16)
		for _, ids := range t {
			total += int64(len(ids)) * 4
		}
	}
	for _, d := range ix.descs {
		total += int64(len(d)) + 24
	}
	return total
}
