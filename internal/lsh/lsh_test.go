package lsh

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func randDesc(rng *rand.Rand) []byte {
	d := make([]byte, 128)
	for i := range d {
		d[i] = byte(rng.Intn(256))
	}
	return d
}

// perturb returns a copy of d with small bounded noise added, i.e. a nearby
// point in Euclidean space.
func perturb(rng *rand.Rand, d []byte, amp int) []byte {
	out := append([]byte(nil), d...)
	for i := range out {
		v := int(out[i]) + rng.Intn(2*amp+1) - amp
		if v < 0 {
			v = 0
		} else if v > 255 {
			v = 255
		}
		out[i] = byte(v)
	}
	return out
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	bad := []Params{
		{L: 0, M: 7, W: 500, Dim: 128},
		{L: 10, M: 0, W: 500, Dim: 128},
		{L: 10, M: 7, W: 0, Dim: 128},
		{L: 10, M: 7, W: 500, Dim: 0},
		{L: 10, M: 7, W: math.NaN(), Dim: 128},
		{L: 10, M: 7, W: math.Inf(1), Dim: 128},
		{L: 1 << 20, M: 1 << 20, W: 500, Dim: 1 << 20},
		{L: 64, M: 64, W: 500, Dim: 128},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestHasherDeterministic(t *testing.T) {
	p := DefaultParams()
	h1, err := NewHasher(p)
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := NewHasher(p)
	rng := rand.New(rand.NewSource(1))
	d := randDesc(rng)
	for tbl := 0; tbl < p.L; tbl++ {
		b1 := h1.Bucket(d, tbl)
		b2 := h2.Bucket(d, tbl)
		for i := range b1 {
			if b1[i] != b2[i] {
				t.Fatalf("table %d: hashers with same seed disagree", tbl)
			}
		}
	}
}

func TestHasherLocality(t *testing.T) {
	// Nearby descriptors must collide in at least one table far more often
	// than random pairs — the defining LSH property.
	h, err := NewHasher(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	trials := 200
	nearCollide, farCollide := 0, 0
	for i := 0; i < trials; i++ {
		d := randDesc(rng)
		near := perturb(rng, d, 4)
		far := randDesc(rng)
		if collideAnyTable(h, d, near) {
			nearCollide++
		}
		if collideAnyTable(h, d, far) {
			farCollide++
		}
	}
	if nearCollide < trials*7/10 {
		t.Errorf("near pairs collide only %d/%d", nearCollide, trials)
	}
	if farCollide > trials/10 {
		t.Errorf("far pairs collide %d/%d — not locality sensitive", farCollide, trials)
	}
}

func collideAnyTable(h *Hasher, a, b []byte) bool {
	p := h.Params()
	for t := 0; t < p.L; t++ {
		if h.Key(t, h.Bucket(a, t)) == h.Key(t, h.Bucket(b, t)) {
			return true
		}
	}
	return false
}

func TestProbesCount(t *testing.T) {
	h, _ := NewHasher(Params{L: 2, M: 5, W: 100, Dim: 16, Seed: 3})
	coords := []int32{1, 2, 3, 4, 5}
	probes := h.Probes(coords)
	if len(probes) != 11 { // 1 exact + 2*M
		t.Fatalf("probes = %d, want 11", len(probes))
	}
	// First probe is the exact bucket.
	for i, c := range probes[0] {
		if c != coords[i] {
			t.Fatal("first probe is not the exact bucket")
		}
	}
	// Every other probe differs by exactly one coordinate by exactly 1.
	for _, p := range probes[1:] {
		diff := 0
		for i := range p {
			d := p[i] - coords[i]
			if d != 0 {
				diff++
				if d != 1 && d != -1 {
					t.Fatalf("probe step %d not off-by-one", d)
				}
			}
		}
		if diff != 1 {
			t.Fatalf("probe differs in %d coordinates", diff)
		}
	}
}

func TestKeyTableSeparation(t *testing.T) {
	h, _ := NewHasher(Params{L: 2, M: 3, W: 100, Dim: 8, Seed: 4})
	coords := []int32{7, -2, 9}
	if h.Key(0, coords) == h.Key(1, coords) {
		t.Error("same coords in different tables should (almost surely) get different keys")
	}
}

func TestIndexInsertQueryExact(t *testing.T) {
	ix, err := NewIndex(Params{L: 6, M: 4, W: 400, Dim: 128, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	var descs [][]byte
	for i := 0; i < 200; i++ {
		d := randDesc(rng)
		descs = append(descs, d)
		id, err := ix.Insert(d)
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("id = %d, want %d", id, i)
		}
	}
	// Querying an inserted descriptor must return itself at distance 0.
	hits := 0
	for i, d := range descs {
		cands, err := ix.Query(d, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) > 0 && cands[0].ID == i && cands[0].DistSq == 0 {
			hits++
		}
	}
	if hits != len(descs) {
		t.Errorf("self-query hit %d/%d", hits, len(descs))
	}
}

func TestIndexQueryFindsNearNeighbor(t *testing.T) {
	ix, _ := NewIndex(Params{L: 10, M: 5, W: 500, Dim: 128, Seed: 7})
	rng := rand.New(rand.NewSource(8))
	var descs [][]byte
	for i := 0; i < 300; i++ {
		d := randDesc(rng)
		descs = append(descs, d)
		ix.Insert(d)
	}
	found := 0
	for i := 0; i < 100; i++ {
		q := perturb(rng, descs[i], 3)
		cands, _ := ix.Query(q, QueryOptions{MultiProbe: true})
		if len(cands) > 0 && cands[0].ID == i {
			found++
		}
	}
	if found < 80 {
		t.Errorf("near-neighbor recall %d/100", found)
	}
}

func TestIndexQuerySorted(t *testing.T) {
	ix, _ := NewIndex(Params{L: 4, M: 3, W: 2000, Dim: 32, Seed: 9})
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 100; i++ {
		d := make([]byte, 32)
		for j := range d {
			d[j] = byte(rng.Intn(256))
		}
		ix.Insert(d)
	}
	q := make([]byte, 32)
	cands, _ := ix.Query(q, QueryOptions{MultiProbe: true})
	for i := 1; i < len(cands); i++ {
		if cands[i].DistSq < cands[i-1].DistSq {
			t.Fatal("candidates not sorted by distance")
		}
	}
}

func TestIndexMaxCandidates(t *testing.T) {
	ix, _ := NewIndex(Params{L: 4, M: 2, W: 5000, Dim: 16, Seed: 11})
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 50; i++ {
		d := make([]byte, 16)
		for j := range d {
			d[j] = byte(rng.Intn(30)) // cluster everything together
		}
		ix.Insert(d)
	}
	q := make([]byte, 16)
	cands, _ := ix.Query(q, QueryOptions{MaxCandidates: 5, MultiProbe: true})
	if len(cands) > 5 {
		t.Errorf("MaxCandidates ignored: %d results", len(cands))
	}
}

// TestIndexMaxDistSq: a gated query returns the ungated answer with the
// candidates beyond the gate removed, capped or not. The descriptors are
// near copies of a few bases, so squared distances are small and often
// equal to the gate.
func TestIndexMaxDistSq(t *testing.T) {
	ix, _ := NewIndex(Params{L: 4, M: 2, W: 5000, Dim: 16, Seed: 13})
	rng := rand.New(rand.NewSource(14))
	bases := make([][]byte, 5)
	for i := range bases {
		bases[i] = make([]byte, 16)
		for j := range bases[i] {
			bases[i][j] = byte(10 + rng.Intn(200))
		}
	}
	for i := 0; i < 200; i++ {
		ix.Insert(perturb(rng, bases[i%len(bases)], 2))
	}
	for trial := 0; trial < 200; trial++ {
		q := perturb(rng, bases[rng.Intn(len(bases))], 1)
		gate := 1 + rng.Intn(40)
		n := rng.Intn(6) // 0: uncapped
		all, _ := ix.Query(q, QueryOptions{MultiProbe: true, MaxCandidates: n})
		var want []Candidate
		for _, c := range all {
			if c.DistSq <= gate {
				want = append(want, c)
			}
		}
		got, _ := ix.Query(q, QueryOptions{MultiProbe: true, MaxCandidates: n, MaxDistSq: gate})
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n %d, gate %d): gated %v, want %v", trial, n, gate, got, want)
		}
	}
}

func TestIndexDimensionMismatch(t *testing.T) {
	ix, _ := NewIndex(Params{L: 2, M: 2, W: 100, Dim: 8, Seed: 13})
	if _, err := ix.Insert(make([]byte, 9)); err == nil {
		t.Error("Insert accepted wrong dimension")
	}
	if _, err := ix.Query(make([]byte, 7), QueryOptions{}); err == nil {
		t.Error("Query accepted wrong dimension")
	}
}

func TestIndexMemoryGrows(t *testing.T) {
	ix, _ := NewIndex(Params{L: 4, M: 3, W: 500, Dim: 64, Seed: 14})
	empty := ix.MemoryBytes()
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 100; i++ {
		d := make([]byte, 64)
		for j := range d {
			d[j] = byte(rng.Intn(256))
		}
		ix.Insert(d)
	}
	if ix.MemoryBytes() <= empty {
		t.Error("MemoryBytes did not grow with inserts")
	}
	// LSH replication: footprint should exceed the raw descriptor bytes.
	if ix.MemoryBytes() < 100*64 {
		t.Error("MemoryBytes below raw data size — replication unaccounted")
	}
}

func TestBucketQuantizationMonotone(t *testing.T) {
	// Property: scaling a descriptor toward larger values shifts projections
	// continuously — bucket coordinates of d and d+1 (per byte) differ by a
	// bounded amount.
	h, _ := NewHasher(Params{L: 1, M: 4, W: 500, Dim: 16, Seed: 16})
	f := func(raw [16]byte) bool {
		d := raw[:]
		d2 := make([]byte, 16)
		for i := range d {
			v := int(d[i]) + 1
			if v > 255 {
				v = 255
			}
			d2[i] = byte(v)
		}
		b1 := h.Bucket(d, 0)
		b2 := h.Bucket(d2, 0)
		for i := range b1 {
			diff := b2[i] - b1[i]
			if diff < -2 || diff > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkBucketInto(b *testing.B) {
	h, _ := NewHasher(DefaultParams())
	rng := rand.New(rand.NewSource(1))
	d := randDesc(rng)
	out := make([]int32, h.Params().M)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.BucketInto(d, i%h.Params().L, out)
	}
}

func BenchmarkIndexQuery(b *testing.B) {
	ix, _ := NewIndex(DefaultParams())
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		ix.Insert(randDesc(rng))
	}
	q := randDesc(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Query(q, QueryOptions{MultiProbe: true})
	}
}

func TestConcurrentQueries(t *testing.T) {
	ix, _ := NewIndex(Params{L: 6, M: 4, W: 500, Dim: 64, Seed: 44})
	rng := rand.New(rand.NewSource(45))
	var descs [][]byte
	for i := 0; i < 200; i++ {
		d := make([]byte, 64)
		for j := range d {
			d[j] = byte(rng.Intn(256))
		}
		descs = append(descs, d)
		ix.Insert(d)
	}
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < 100; i++ {
				if _, err := ix.Query(descs[(w*13+i)%len(descs)], QueryOptions{MultiProbe: true}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestExtendKeepsOlderHandles: every handle of a lineage must keep answering
// like a fresh index of its own descriptors — same buckets, same candidates
// in the same order, same footprint — while later batches extend the shared
// tables, including while the extension runs (under -race, the proof that
// readers of an older handle never touch what the writer appends). Only the
// newest handle may be extended.
func TestExtendKeepsOlderHandles(t *testing.T) {
	p := Params{L: 6, M: 4, W: 300, Dim: 32, Seed: 5}
	rng := rand.New(rand.NewSource(8))
	var descs [][]byte
	for i := 0; i < 600; i++ {
		d := make([]byte, p.Dim)
		if i%3 == 2 { // near-duplicates crowd buckets, so they grow
			copy(d, descs[i-1])
			d[rng.Intn(p.Dim)] ^= 1
		} else {
			rng.Read(d)
		}
		descs = append(descs, d)
	}
	fresh := func(n int) *Index {
		ix, err := NewIndex(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range descs[:n] {
			if _, err := ix.Insert(d); err != nil {
				t.Fatal(err)
			}
		}
		return ix
	}
	queries := descs[:40]
	answers := func(ix *Index) [][]Candidate {
		var out [][]Candidate
		for _, q := range queries {
			for _, opt := range []QueryOptions{{MultiProbe: true}, {MultiProbe: true, MaxCandidates: 3}} {
				cs, err := ix.Query(q, opt)
				if err != nil {
					t.Error(err)
				}
				out = append(out, cs)
			}
		}
		return out
	}
	handles := []*Index{fresh(0)}
	want := [][][]Candidate{answers(handles[0])}
	for n := 0; n < len(descs); {
		k := min(1+rng.Intn(90), len(descs)-n)
		held := handles[len(handles)-1]
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // a reader of the held handle, racing the extension
			defer wg.Done()
			got := answers(held)
			if !slices.EqualFunc(got, want[len(want)-1], slices.Equal) {
				t.Error("a held handle changed its answers while being extended")
			}
		}()
		next, err := held.Extend(descs[n : n+k])
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		n += k
		handles = append(handles, next)
		want = append(want, answers(fresh(n)))
	}
	for i, ix := range handles {
		ref := fresh(ix.Len())
		if !slices.EqualFunc(answers(ix), want[i], slices.Equal) {
			t.Fatalf("handle of %d descriptors answers unlike a fresh index", ix.Len())
		}
		if got, want := ix.MemoryBytes(), ref.MemoryBytes(); got != want {
			t.Fatalf("handle of %d descriptors: MemoryBytes %d, fresh %d", ix.Len(), got, want)
		}
		if !mapsEqual(tableDump(ix), tableDump(ref)) {
			t.Fatalf("handle of %d descriptors sees other buckets than a fresh index", ix.Len())
		}
	}
	if _, err := handles[1].Extend(descs[:1]); err == nil {
		t.Fatal("an older handle was extended")
	}
}

func mapsEqual(a, b []map[uint64][]int32) bool {
	return slices.EqualFunc(a, b, func(x, y map[uint64][]int32) bool {
		if len(x) != len(y) {
			return false
		}
		for k, v := range x {
			if !slices.Equal(v, y[k]) {
				return false
			}
		}
		return true
	})
}
