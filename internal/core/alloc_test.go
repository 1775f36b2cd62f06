package core

// Equivalence and allocation coverage for the scratch-buffer oracle paths
// (see DESIGN.md "Performance"): the pooled Insert/Uniqueness must behave
// exactly like the original allocating implementations, and their steady
// state must stay off the heap — the client-side filtering cost that
// Figure 16 benchmarks.

import (
	"math/rand"
	"testing"

	"visualprint/internal/bloom"
	"visualprint/internal/testutil"
)

// referenceUniqueness is the pre-optimization lookup, kept verbatim: fresh
// coordinate/key/position allocations per table and per probe, with the
// allocating Probes and PositionsKey helpers.
func referenceUniqueness(o *Oracle, desc []byte) uint32 {
	refEstimate := func(t int, key []byte) uint32 {
		cf := o.primary[t]
		pos := cf.Positions(key)
		count := cf.CountAt(pos)
		if count == 0 && o.p.MultiProbe {
			count = cf.CountAtPartial(pos)
		}
		if count == 0 {
			return 0
		}
		if o.verify != nil {
			vk := bloom.PositionsKey(pos)
			vk = append(vk, byte(t))
			if !o.verify.Test(vk) {
				return 0
			}
		}
		return count
	}
	ests := make([]uint32, 0, o.p.LSH.L)
	var key []byte
	for t := 0; t < o.p.LSH.L; t++ {
		coords := o.hasher.Bucket(desc, t)
		key = bucketBytes(key, coords)
		est := refEstimate(t, key)
		if est == 0 && o.p.MultiProbe {
			for _, probe := range o.hasher.Probes(coords)[1:] {
				key = bucketBytes(key, probe)
				if e := refEstimate(t, key); e > 0 {
					est = e
					break
				}
			}
		}
		ests = append(ests, est)
	}
	// Insertion sort stands in for the original sort.Slice; both produce a
	// sorted slice, and only the median is read.
	for i := 1; i < len(ests); i++ {
		for j := i; j > 0 && ests[j] < ests[j-1]; j-- {
			ests[j], ests[j-1] = ests[j-1], ests[j]
		}
	}
	return ests[len(ests)/2]
}

// TestUniquenessMatchesReference: scratch-based Uniqueness must agree with
// the original implementation for seen, perturbed and unseen descriptors —
// including the multiprobe fallback path, which the perturbed descriptors
// exercise.
func TestUniquenessMatchesReference(t *testing.T) {
	o, err := New(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	inserted := make([][]byte, 400)
	for i := range inserted {
		inserted[i] = siftLikeDesc(rng)
		reps := 1 + i%4
		for r := 0; r < reps; r++ {
			if err := o.Insert(inserted[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	queries := make([][]byte, 0, 300)
	for i := 0; i < 100; i++ {
		queries = append(queries, inserted[rng.Intn(len(inserted))])
		p := append([]byte(nil), inserted[rng.Intn(len(inserted))]...)
		for j := 0; j < 4; j++ { // small Euclidean nudge -> adjacent buckets
			k := rng.Intn(len(p))
			p[k] = byte(min(255, int(p[k])+3))
		}
		queries = append(queries, p)
		queries = append(queries, siftLikeDesc(rng))
	}
	for qi, q := range queries {
		got, err := o.Uniqueness(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceUniqueness(o, q); got != want {
			t.Fatalf("query %d: Uniqueness = %d, reference = %d", qi, got, want)
		}
	}
}

// TestOracleScoringSteadyStateZeroAllocs pins the client-side scoring path
// (Uniqueness, including multiprobe misses) at zero steady-state heap
// allocations.
func TestOracleScoringSteadyStateZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; see testutil.RaceEnabled")
	}
	o, err := New(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	for i := 0; i < 500; i++ {
		if err := o.Insert(siftLikeDesc(rng)); err != nil {
			t.Fatal(err)
		}
	}
	seen := siftLikeDesc(rng)
	if err := o.Insert(seen); err != nil {
		t.Fatal(err)
	}
	unseen := siftLikeDesc(rng) // exercises the full 2M-probe fallback
	for _, tc := range []struct {
		name string
		desc []byte
	}{{"seen", seen}, {"unseen", unseen}} {
		desc := tc.desc
		if _, err := o.Uniqueness(desc); err != nil { // warm the pool
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := o.Uniqueness(desc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: steady-state Uniqueness allocates %.1f objects/op, want 0", tc.name, allocs)
		}
	}
}

// TestOracleInsertSteadyStateZeroAllocs: server-side ingest of one
// descriptor must also stay off the heap (filters are preallocated; only
// counters change).
func TestOracleInsertSteadyStateZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; see testutil.RaceEnabled")
	}
	o, err := New(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(63))
	d := siftLikeDesc(rng)
	if err := o.Insert(d); err != nil { // warm the pool
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		d[0] = byte(i)
		i++
		if err := o.Insert(d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Insert allocates %.1f objects/op, want 0", allocs)
	}
}
