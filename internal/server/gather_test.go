package server

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"visualprint/internal/lsh"
	"visualprint/internal/mathx"
	"visualprint/internal/sift"
	"visualprint/internal/testutil"
)

// gatherFixture spreads one stream of mappings — twelve base descriptors
// repeated over six batches, a third of them exact duplicates and the rest
// one step off, tagged with sparse increasing Seq — round-robin over nViews
// shards, so every shard holds interleaved, non-contiguous Seq and equal
// distances abound. Each mapping's position encodes its Seq, which makes a
// candidate list comparable by value. It returns the shards' published views
// and one query keypoint per base descriptor.
func gatherFixture(t testing.TB, cfg DatabaseConfig, nViews int) ([]*dbView, []sift.Keypoint) {
	t.Helper()
	shards := make([]*Database, nViews)
	for i := range shards {
		db, err := NewDatabase(cfg)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = db
	}
	rng := rand.New(rand.NewSource(5))
	var bases []Mapping
	for i := 0; i < 12; i++ {
		var m Mapping
		for j := range m.Desc {
			m.Desc[j] = byte(rng.Intn(256))
		}
		bases = append(bases, m)
	}
	seq, placed := uint64(0), 0
	for batch := 0; batch < 6; batch++ {
		ms := make([][]Mapping, nViews)
		seqs := make([][]uint64, nViews)
		for _, b := range bases {
			m := b
			if k := rng.Intn(3); k > 0 {
				m.Desc[rng.Intn(len(m.Desc))] ^= 2
			}
			seq += 1 + uint64(rng.Intn(4))
			m.Pos = mathx.Vec3{X: float64(seq)}
			si := placed % nViews
			placed++
			ms[si], seqs[si] = append(ms[si], m), append(seqs[si], seq)
		}
		for si, db := range shards {
			if err := db.IngestSeq(context.Background(), ms[si], seqs[si]); err != nil {
				t.Fatal(err)
			}
		}
	}
	views := make([]*dbView, nViews)
	for i, db := range shards {
		views[i] = db.cur.Load()
	}
	kps := make([]sift.Keypoint, len(bases))
	for i, b := range bases {
		kps[i] = sift.Keypoint{X: float64(i), Y: float64(2 * i), Desc: b.Desc}
	}
	return views, kps
}

// TestGatherIsTheTotalOrderTopN checks gather against its definition — per
// keypoint, every candidate any view collects, sorted by compareMergeCands,
// truncated to n, then distance-gated — over one view (where gather relies
// on the capped index query already ranking by (DistSq, Probe, Seq)) and
// over three (where it restores that order across views). The fixture's
// distance ties are decided by Probe and Seq, and the gate sits between the
// exact duplicates and the one-step-off copies. Both topologies hold the same stream, so their
// lists must also equal each other: the one-shard/N-shard bit-identity at
// the level where it is decided.
func TestGatherIsTheTotalOrderTopN(t *testing.T) {
	cfg := routerTestConfig()
	const n, gate = 3, 3 // duplicates (0) pass the gate, one-step-off copies (4) do not
	var lists [][]locateCand
	for _, nViews := range []int{1, 3} {
		views, kps := gatherFixture(t, cfg, nViews)
		got, err := gather(context.Background(), views, kps, n, gate, runtime.GOMAXPROCS(0))
		if err != nil {
			t.Fatal(err)
		}
		want, ties, gated := referenceGather(t, views, kps, n, gate)
		if !slices.Equal(got, want) {
			t.Fatalf("%d view(s):\n got  %+v\n want %+v", nViews, got, want)
		}
		if ties == 0 || gated == 0 || len(want) == 0 {
			t.Fatalf("%d view(s): %d ties, %d gated, %d kept: the fixture does not exercise the tie-break and the gate", nViews, ties, gated, len(want))
		}
		lists = append(lists, got)
	}
	if !slices.Equal(lists[0], lists[1]) {
		t.Fatalf("one view and three views over the same stream disagree:\n 1: %+v\n 3: %+v", lists[0], lists[1])
	}
}

// referenceGather is gather by its definition: per keypoint, every
// candidate any view's uncapped, ungated query collects, sorted by
// compareMergeCands, truncated to n, then gated on maxDistSq after the
// merge. It also counts the distance ties within the kept top n and the
// entries the gate removed.
func referenceGather(t testing.TB, views []*dbView, kps []sift.Keypoint, n, maxDistSq int) (want []locateCand, ties, gated int) {
	t.Helper()
	for _, kp := range kps {
		var all []mergeCand
		for _, v := range views {
			cs, err := v.index.Query(kp.Desc[:], lsh.QueryOptions{MultiProbe: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cs {
				all = append(all, mergeCand{distSq: c.DistSq, probe: c.Probe, seq: v.seqs[c.ID], pos: v.positions[c.ID]})
			}
		}
		slices.SortFunc(all, compareMergeCands)
		all = all[:min(len(all), n)]
		for j, c := range all {
			if j > 0 && c.distSq == all[j-1].distSq {
				ties++
			}
			if maxDistSq > 0 && c.distSq > maxDistSq {
				gated++
				continue
			}
			want = append(want, locateCand{px: kp.X, py: kp.Y, p: c.pos})
		}
	}
	return want, ties, gated
}

// TestGatherGateInQueryMatchesMergeGate: the distance gate applied inside
// each view's capped query keeps exactly what a gate after the merge keeps,
// over random venues of one to four views — noisy copies of forty base
// descriptors, a few small steps off, so squared distances are small
// integers that often equal the random gate — at random n.
func TestGatherGateInQueryMatchesMergeGate(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	gatedTotal := 0
	for trial := 0; trial < 12; trial++ {
		cfg := routerTestConfig()
		n := 1 + rng.Intn(8)
		gate := 1 + rng.Intn(40)
		nViews := 1 + rng.Intn(4)
		shards := make([]*Database, nViews)
		for i := range shards {
			db, err := NewDatabase(cfg)
			if err != nil {
				t.Fatal(err)
			}
			shards[i] = db
		}
		bases := make([][128]byte, 40)
		for i := range bases {
			for j := range bases[i] {
				bases[i][j] = byte(rng.Intn(256))
			}
		}
		seq := uint64(0)
		ms := make([][]Mapping, nViews)
		seqs := make([][]uint64, nViews)
		for k := 0; k < 300; k++ {
			m := Mapping{Desc: bases[rng.Intn(len(bases))]}
			for e := rng.Intn(8); e > 0; e-- {
				m.Desc[rng.Intn(len(m.Desc))] += byte(rng.Intn(7) - 3)
			}
			seq += 1 + uint64(rng.Intn(3))
			m.Pos = mathx.Vec3{X: float64(seq)}
			si := rng.Intn(nViews)
			ms[si], seqs[si] = append(ms[si], m), append(seqs[si], seq)
		}
		views := make([]*dbView, nViews)
		for i, db := range shards {
			if err := db.IngestSeq(context.Background(), ms[i], seqs[i]); err != nil {
				t.Fatal(err)
			}
			views[i] = db.cur.Load()
		}
		kps := make([]sift.Keypoint, 40)
		for i := range kps {
			kps[i] = sift.Keypoint{X: float64(i), Desc: bases[i%len(bases)]}
			for e := rng.Intn(4); e > 0; e-- {
				kps[i].Desc[rng.Intn(len(kps[i].Desc))] += byte(rng.Intn(3) - 1)
			}
		}
		got, err := gather(context.Background(), views, kps, n, gate, 2)
		if err != nil {
			t.Fatal(err)
		}
		want, _, gated := referenceGather(t, views, kps, n, gate)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d views, n %d, gate %d): gated query kept %d candidates, merge gate %d",
				trial, nViews, n, gate, len(got), len(want))
		}
		gatedTotal += gated
	}
	t.Logf("the gate removed %d candidates", gatedTotal)
	if gatedTotal == 0 {
		t.Fatal("no trial's gate removed a candidate: the test does not exercise it")
	}
}

// TestGatherAllocsDoNotGrowWithShards pins the scratch discipline: a warm
// gather over four views allocates no more than over one — the slots, the
// per-worker buffers and the worker goroutines, none of them per keypoint or
// per view.
func TestGatherAllocsDoNotGrowWithShards(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; see testutil.RaceEnabled")
	}
	cfg := routerTestConfig()
	allocs := func(nViews int) float64 {
		views, kps := gatherFixture(t, cfg, nViews)
		for len(kps) < parallelLocateThreshold { // large enough to use the pool
			kps = append(kps, kps...)
		}
		run := func() {
			if _, err := gather(context.Background(), views, kps, neighborsPerKeypoint, maxMatchDistSq, 2); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the indexes' pooled query scratch
		return testing.AllocsPerRun(20, run)
	}
	one, four := allocs(1), allocs(4)
	t.Logf("warm gather allocs: %.0f over 1 view, %.0f over 4", one, four)
	if four > one {
		t.Fatalf("warm gather allocates %.0f over 4 views, %.0f over 1", four, one)
	}
	if one > 16 {
		t.Fatalf("warm one-view gather allocates %.0f times; the scratch is not being reused", one)
	}
}
