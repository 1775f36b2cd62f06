package server

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"visualprint/internal/lsh"
	"visualprint/internal/sift"
)

// TestCandidateSetsAreTheTotalOrderTopN: CandidateSets relies on the capped
// index query already ranking by the venue-wide (DistSq, Probe, Seq) order
// within one shard. Check it against the definition — every collected
// candidate, sorted by compareMergeCands, truncated — on a shard whose
// descriptors repeat across sparse, non-contiguous Seq (as a shard of a
// sharded venue sees them), so distance ties are decided by Probe and Seq.
func TestCandidateSetsAreTheTotalOrderTopN(t *testing.T) {
	cfg := routerTestConfig()
	cfg.NeighborsPerKeypoint = 3
	db, err := NewDatabase(cfg)
	if err != nil {
		t.Fatal(err)
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
	seq := uint64(0)
	for batch := 0; batch < 6; batch++ {
		var ms []Mapping
		var seqs []uint64
		for _, b := range bases {
			m := b
			if k := rng.Intn(3); k > 0 { // a third exact duplicates, the rest one step off
				m.Desc[rng.Intn(len(m.Desc))] ^= 2
			}
			m.Pos.X = float64(len(ms))
			seq += 1 + uint64(rng.Intn(4))
			ms, seqs = append(ms, m), append(seqs, seq)
		}
		if err := db.IngestSeq(context.Background(), ms, seqs); err != nil {
			t.Fatal(err)
		}
	}
	kps := make([]sift.Keypoint, len(bases))
	for i, b := range bases {
		kps[i].Desc = b.Desc
	}
	got, err := db.CandidateSets(context.Background(), kps)
	if err != nil {
		t.Fatal(err)
	}
	v, tok := db.pinView()
	defer db.unpin(v, tok)
	ties := 0
	for i, kp := range kps {
		all, err := v.index.Query(kp.Desc[:], lsh.QueryOptions{MultiProbe: true})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]MergeCand, len(all))
		for j, c := range all {
			want[j] = MergeCand{DistSq: c.DistSq, Probe: c.Probe, Seq: v.seqs[c.ID], Pos: v.positions[c.ID]}
		}
		slices.SortFunc(want, compareMergeCands)
		want = want[:min(len(want), cfg.NeighborsPerKeypoint)]
		if !slices.Equal(got[i], want) {
			t.Fatalf("keypoint %d:\n got  %+v\n want %+v", i, got[i], want)
		}
		for j := 1; j < len(want); j++ {
			if want[j].DistSq == want[j-1].DistSq {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Fatal("no distance ties among the kept candidates: the fixture does not exercise the tie-break")
	}
}
