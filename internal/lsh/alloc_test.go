package lsh

// Allocation and equivalence coverage for the zero-allocation query path
// (see DESIGN.md "Performance"): QueryInto must return exactly what Query
// returns, and a steady-state QueryInto must not touch the heap at all —
// future PRs cannot silently reintroduce garbage on the Locate hot path.

import (
	"math/rand"
	"slices"
	"testing"

	"visualprint/internal/testutil"
)

func buildQueryIndex(t testing.TB, n int) (*Index, *rand.Rand) {
	t.Helper()
	ix, err := NewIndex(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < n; i++ {
		if _, err := ix.Insert(randDesc(rng)); err != nil {
			t.Fatal(err)
		}
	}
	return ix, rng
}

// TestQueryIntoMatchesQuery: the in-place path must return candidate slices
// identical to the allocating Query for exact hits, near neighbors and
// misses, with and without multiprobe and candidate caps.
func TestQueryIntoMatchesQuery(t *testing.T) {
	ix, rng := buildQueryIndex(t, 1500)
	opts := []QueryOptions{
		{MultiProbe: true},
		{MultiProbe: false},
		{MultiProbe: true, MaxCandidates: 2},
	}
	var dst []Candidate
	for trial := 0; trial < 60; trial++ {
		var q []byte
		switch trial % 3 {
		case 0: // exact hit
			q = append([]byte(nil), ix.descs[rng.Intn(len(ix.descs))]...)
		case 1: // near neighbor
			q = perturb(rng, ix.descs[rng.Intn(len(ix.descs))], 3)
		default: // likely miss
			q = randDesc(rng)
		}
		for _, opt := range opts {
			want, err := ix.Query(q, opt)
			if err != nil {
				t.Fatal(err)
			}
			dst, err = ix.QueryInto(q, opt, dst)
			if err != nil {
				t.Fatal(err)
			}
			if len(dst) != len(want) {
				t.Fatalf("trial %d opt %+v: QueryInto returned %d candidates, Query %d",
					trial, opt, len(dst), len(want))
			}
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("trial %d opt %+v candidate %d: %+v != %+v",
						trial, opt, i, dst[i], want[i])
				}
			}
		}
	}
}

// TestTopNMatchesSortAndTruncate: a capped query keeps a sorted top-n while
// collecting and scores with an early-abandon distance; it must return
// exactly what collecting everything, stable-sorting and truncating returns
// — ids, distances, probe ordinals, order. The indexes are built to force
// distance ties: descriptors inserted more than once (equal distance, same
// bucket, adjacent arrival) and one-byte variants of a base (equal distance,
// usually different buckets, so ties that arrive probes apart).
func TestTopNMatchesSortAndTruncate(t *testing.T) {
	var dst []Candidate
	cases, ties := 0, 0
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ix, err := NewIndex(DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		var bases [][]byte
		for b := 0; b < 6; b++ {
			base := randDesc(rng)
			bases = append(bases, base)
			for v := 0; v < 40; v++ {
				var d []byte
				switch v % 4 {
				case 0: // duplicate of the base
					d = append([]byte(nil), base...)
				case 1: // one byte moved by a fixed step: many equidistant variants
					d = append([]byte(nil), base...)
					d[rng.Intn(len(d))] ^= 4
				default:
					d = perturb(rng, base, 1+rng.Intn(6))
				}
				if _, err := ix.Insert(d); err != nil {
					t.Fatal(err)
				}
			}
		}
		for q := 0; q < 4; q++ {
			query := bases[rng.Intn(len(bases))]
			if q%2 == 1 {
				query = perturb(rng, query, 2)
			}
			for _, multi := range []bool{false, true} {
				all, err := ix.Query(query, QueryOptions{MultiProbe: multi})
				if err != nil {
					t.Fatal(err)
				}
				for i := 1; i < len(all); i++ {
					if all[i].DistSq == all[i-1].DistSq {
						ties++
					}
				}
				for _, n := range []int{1, 2, 3, 8, len(all) + 5} {
					want := all[:min(n, len(all))]
					dst, err = ix.QueryInto(query, QueryOptions{MultiProbe: multi, MaxCandidates: n}, dst)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(dst, want) {
						t.Fatalf("seed %d query %d multiprobe %v n %d:\n top-n %+v\n sorted %+v", seed, q, multi, n, dst, want)
					}
					cases++
				}
			}
		}
	}
	if cases < 200 || ties < cases {
		t.Fatalf("%d cases with %d adjacent ties: the fixture no longer exercises the tie-break", cases, ties)
	}
}

// TestIndexQuerySteadyStateZeroAllocs pins the steady-state query at zero
// heap allocations: warmed scratch (pool) plus a warmed destination slice
// must serve repeated queries entirely from reused memory.
func TestIndexQuerySteadyStateZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; see testutil.RaceEnabled")
	}
	ix, rng := buildQueryIndex(t, 1500)
	q := perturb(rng, ix.descs[17], 2)
	opt := QueryOptions{MultiProbe: true, MaxCandidates: 4}
	var dst []Candidate
	var err error
	// Warm the pool scratch, the dedup map and dst's capacity.
	for i := 0; i < 3; i++ {
		if dst, err = ix.QueryInto(q, opt, dst); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		dst, err = ix.QueryInto(q, opt, dst)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("steady-state QueryInto allocates %.1f objects/op, want 0", allocs)
	}
}

// TestInsertSteadyStateLowAllocs: Insert necessarily allocates for the
// retained descriptor and growing buckets, but the hashing itself must run
// through scratch — keep it bounded rather than per-projection.
func TestInsertSteadyStateLowAllocs(t *testing.T) {
	ix, rng := buildQueryIndex(t, 200)
	descs := make([][]byte, 64)
	for i := range descs {
		descs[i] = randDesc(rng)
	}
	i := 0
	allocs := testing.AllocsPerRun(len(descs), func() {
		if _, err := ix.Insert(descs[i%len(descs)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	// Bucket append growth and the descs slice dominate; the old path spent
	// hundreds of allocations per insert on coords/key buffers.
	if allocs > 40 {
		t.Fatalf("Insert allocates %.1f objects/op, want the scratch-based path (<= 40)", allocs)
	}
}

// BenchmarkIndexQueryInto is the zero-allocation counterpart of
// BenchmarkIndexQuery.
func BenchmarkIndexQueryInto(b *testing.B) {
	ix, rng := buildQueryIndex(b, 5000)
	q := randDesc(rng)
	var dst []Candidate
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = ix.QueryInto(q, QueryOptions{MultiProbe: true}, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryIntoTop2 is the server's per-keypoint query: multi-probe,
// MaxCandidates 2 (NeighborsPerKeypoint), a near neighbor in the index so the
// held n-th distance is small and most candidates are abandoned early.
func BenchmarkQueryIntoTop2(b *testing.B) {
	ix, rng := buildQueryIndex(b, 5000)
	target := ix.descs[rng.Intn(len(ix.descs))]
	for i := 0; i < 200; i++ { // a populated neighborhood around the query
		if _, err := ix.Insert(perturb(rng, target, 1+i%24)); err != nil {
			b.Fatal(err)
		}
	}
	q := perturb(rng, target, 2)
	var dst []Candidate
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = ix.QueryInto(q, QueryOptions{MultiProbe: true, MaxCandidates: 2}, dst); err != nil {
			b.Fatal(err)
		}
	}
	if len(dst) != 2 {
		b.Fatalf("query kept %d candidates, want 2", len(dst))
	}
}
