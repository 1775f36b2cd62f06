package lsh

// Reference kernels: the row-by-row projection, byte-serialized keys and
// the [][]byte-descriptor, id-major-link index the interleaved projection,
// integer-hashed keys, descriptor arena and table-major links replaced. The
// index must answer every query exactly as they do — same ids, distances
// and probe ordinals in the same order — on every handle of a lineage.

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"visualprint/internal/dist"
	"visualprint/internal/hash"
)

// refHasher is the row-major projection family: the same draws as
// NewHasher, one row of Dim coefficients per slice.
type refHasher struct {
	p    Params
	proj [][]float32
	offs []float64
}

func newRefHasher(p Params) *refHasher {
	rng := rand.New(rand.NewSource(p.Seed))
	h := &refHasher{p: p}
	for i := 0; i < p.L*p.M; i++ {
		row := make([]float32, p.Dim)
		for d := range row {
			row[d] = float32(rng.NormFloat64())
		}
		h.proj = append(h.proj, row)
		h.offs = append(h.offs, rng.Float64()*p.W)
	}
	return h
}

// bucket projects row by row, each row's sum in dimension order.
func (h *refHasher) bucket(vec []float32, table int, out []int32) {
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

// key serializes the coordinates and hashes the bytes.
func (h *refHasher) key(table int, coords []int32) uint64 {
	buf := make([]byte, 4*len(coords))
	for i, c := range coords {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(c))
	}
	return hash.Sum64(buf, uint32(table)*0x9e3779b9+1)
}

// TestInterleavedProjectionMatchesRowByRow: the interleaved kernel must give
// every coordinate bit for bit, for M below, at, just past and well past one
// group of 8 rows and a Dim that is not a multiple of 8.
func TestInterleavedProjectionMatchesRowByRow(t *testing.T) {
	for _, m := range []int{1, 7, 8, 9, 17} {
		p := Params{L: 3, M: m, W: 37, Dim: 45, Seed: int64(m)}
		h, err := NewHasher(p)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefHasher(p)
		rng := rand.New(rand.NewSource(int64(100 + m)))
		desc := make([]byte, p.Dim)
		var vec []float32
		got, want := make([]int32, m), make([]int32, m)
		for i := 0; i < 20000; i++ {
			rng.Read(desc)
			vec = DescriptorVec(desc, vec)
			table := i % p.L
			h.BucketVecInto(vec, table, got)
			ref.bucket(vec, table, want)
			if !slices.Equal(got, want) {
				t.Fatalf("M %d descriptor %d table %d: interleaved %v, row by row %v", m, i, table, got, want)
			}
			if k, rk := h.Key(table, got), ref.key(table, want); k != rk {
				t.Fatalf("M %d descriptor %d table %d: key %#x, serialized %#x", m, i, table, k, rk)
			}
		}
	}
}

// refIndex is the former index layout: retained [][]byte descriptors and
// one id-major link array, next[id*L+t], over the same bucket tables. Only
// the newest handle is extended, as with Index.
type refIndex struct {
	h     *refHasher
	t     *tables
	descs [][]byte
	next  []int32
}

func newRefIndex(p Params) *refIndex {
	ix, _ := NewIndex(p) // borrow its empty tables
	return &refIndex{h: newRefHasher(p), t: ix.t}
}

func (ix *refIndex) visible(stored int32) int32 {
	if id := stored - 1; id >= 0 && int(id) < len(ix.descs) {
		return id
	}
	return -1
}

func (ix *refIndex) extend(descs [][]byte) *refIndex {
	next := *ix
	L := ix.h.p.L
	next.next = append(next.next, make([]int32, L*len(descs))...)
	coords := make([]int32, ix.h.p.M)
	for _, desc := range descs {
		id := int32(len(next.descs))
		next.descs = append(next.descs, slices.Clone(desc))
		vec := DescriptorVec(desc, nil)
		for t := 0; t < L; t++ {
			ix.h.bucket(vec, t, coords)
			slots := *ix.t.maps[t].Load()
			s, h := find(slots, ix.h.key(t, coords))
			if h != 0 {
				next.next[int(s.tail)*L+t] = id + 1
				s.tail = id
				continue
			}
			if 4*(ix.t.used[t]+1) > 3*len(slots) {
				grown := make([]slot, 2*len(slots))
				for _, sl := range slots {
					if sl.head != 0 {
						g, _ := find(grown, sl.key)
						*g = sl
					}
				}
				ix.t.maps[t].Store(&grown)
				s, _ = find(grown, ix.h.key(t, coords))
			}
			s.key, s.tail, s.head = ix.h.key(t, coords), id, id+1
			ix.t.used[t]++
		}
	}
	return &next
}

// query is the former QueryInto: project and key each probe as it is
// collected, walk id-major links, score against the retained slices.
func (ix *refIndex) query(desc []byte, opt QueryOptions) []Candidate {
	p := ix.h.p
	gate := math.MaxInt
	if opt.MaxDistSq > 0 {
		gate = opt.MaxDistSq + 1
	}
	perTable := int32(1)
	if opt.MultiProbe {
		perTable += 2 * int32(p.M)
	}
	seen := make([]bool, len(ix.descs))
	var dst []Candidate
	n := opt.MaxCandidates
	collect := func(t int, ord int32, coords []int32) {
		_, head := find(*ix.t.maps[t].Load(), ix.h.key(t, coords))
		for id := ix.visible(head); id >= 0; id = ix.visible(ix.next[int(id)*p.L+t]) {
			if seen[id] {
				continue
			}
			seen[id] = true
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
	}
	vec := DescriptorVec(desc, nil)
	coords := make([]int32, p.M)
	for t := 0; t < p.L; t++ {
		ix.h.bucket(vec, t, coords)
		ord := int32(t) * perTable
		collect(t, ord, coords)
		if opt.MultiProbe {
			for m, orig := range coords {
				coords[m] = orig - 1
				collect(t, ord+1+2*int32(m), coords)
				coords[m] = orig + 1
				collect(t, ord+2+2*int32(m), coords)
				coords[m] = orig
			}
		}
	}
	if n <= 0 {
		slices.SortStableFunc(dst, compareCandidates)
	}
	return dst
}

// TestIndexMatchesReferenceLayout: across several Extend batches, every
// handle — the newest and each older one — answers QueryInto and QueryKeys
// exactly as the reference layout's handle of the same length does.
func TestIndexMatchesReferenceLayout(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(23))
	var descs [][]byte
	for i := 0; i < 1200; i++ {
		if i%3 == 2 { // near-duplicates crowd buckets and tie distances
			descs = append(descs, perturb(rng, descs[i-1], 1+rng.Intn(3)))
		} else {
			descs = append(descs, randDesc(rng))
		}
	}
	ix, err := NewIndex(p)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefIndex(p)
	handles, refs := []*Index{ix}, []*refIndex{ref}
	for n := 0; n < len(descs); {
		k := min(1+rng.Intn(300), len(descs)-n)
		if ix, err = ix.Extend(descs[n : n+k]); err != nil {
			t.Fatal(err)
		}
		ref = ref.extend(descs[n : n+k])
		n += k
		handles, refs = append(handles, ix), append(refs, ref)
	}
	opts := []QueryOptions{
		{MultiProbe: true},
		{MultiProbe: false},
		{MultiProbe: true, MaxCandidates: 2, MaxDistSq: 60000},
		{MultiProbe: true, MaxCandidates: 5},
		{MultiProbe: false, MaxCandidates: 3, MaxDistSq: 20000},
	}
	var dst []Candidate
	var keys []uint64
	compared := 0
	for q := 0; q < 60; q++ {
		query := randDesc(rng)
		if q%2 == 0 {
			query = perturb(rng, descs[rng.Intn(len(descs))], 1+rng.Intn(6))
		}
		for h, ix := range handles {
			for _, opt := range opts {
				want := refs[h].query(query, opt)
				if dst, err = ix.QueryInto(query, opt, dst); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(dst, want) {
					t.Fatalf("handle of %d, query %d, %+v:\n got  %+v\n want %+v", ix.Len(), q, opt, dst, want)
				}
				// Keys from another handle of the lineage serve this one.
				if keys, err = handles[0].ProbeKeys(query, opt.MultiProbe, keys); err != nil {
					t.Fatal(err)
				}
				if dst, err = ix.QueryKeys(query, keys, opt, dst); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(dst, want) {
					t.Fatalf("handle of %d, query %d, %+v: QueryKeys differs from the reference", ix.Len(), q, opt)
				}
				compared += len(want)
			}
		}
	}
	if compared < 1000 {
		t.Fatalf("only %d candidates compared: the fixture no longer exercises the index", compared)
	}
}

// TestQueryKeysRejectsMisfitKeys: keys computed for the other probe mode, or
// for other parameters, are refused rather than read out of order.
func TestQueryKeysRejectsMisfitKeys(t *testing.T) {
	ix, rng := buildQueryIndex(t, 50)
	q := randDesc(rng)
	keys, err := ix.ProbeKeys(q, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.QueryKeys(q, keys, QueryOptions{MultiProbe: true}, nil); err == nil {
		t.Error("single-probe keys accepted by a multi-probe query")
	}
	if _, err := ix.QueryKeys(q[:10], keys, QueryOptions{}, nil); err == nil {
		t.Error("descriptor of the wrong dimension accepted")
	}
	if _, err := ix.ProbeKeys(q[:10], true, nil); err == nil {
		t.Error("ProbeKeys accepted a descriptor of the wrong dimension")
	}
}
