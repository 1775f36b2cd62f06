// Package match implements the scene-identification schemes compared in the
// paper's Figure 13 and the retrieval metrics used to score them:
//
//   - BruteForce: exact nearest-neighbor over every database descriptor
//     (the paper runs this on a GPU via SIMD; here it fans out across
//     goroutines), using ALL query keypoints.
//   - LSH: a conventional E2LSH index over the whole database, all query
//     keypoints — "the most realistic server-side comparison".
//   - Random-N: the strawman client that uploads N uniformly random query
//     keypoints, matched server-side with LSH.
//   - VisualPrint-N: the full system — the uniqueness oracle selects the N
//     most-unique query keypoints, matched server-side with LSH.
//
// A frame is identified by majority vote over the per-keypoint
// nearest-neighbor scene labels.
package match

import (
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"visualprint/internal/core"
	"visualprint/internal/dist"
	"visualprint/internal/lsh"
)

// DB is a labeled descriptor database: scene images and distractor images
// contribute descriptors labeled with their image's id.
type DB struct {
	Descs  [][]byte
	Labels []int
}

// Add appends a descriptor with its image label.
func (db *DB) Add(desc []byte, label int) {
	db.Descs = append(db.Descs, desc)
	db.Labels = append(db.Labels, label)
}

// Len returns the number of descriptors.
func (db *DB) Len() int { return len(db.Descs) }

// RawBytes returns the raw descriptor payload size.
func (db *DB) RawBytes() int64 {
	var n int64
	for _, d := range db.Descs {
		n += int64(len(d))
	}
	return n
}

// Matcher identifies the scene captured by a frame's descriptors.
type Matcher interface {
	// Name is the figure-legend name of the scheme.
	Name() string
	// MatchFrame predicts the database label for a query frame given all
	// its extracted descriptors. The returned votes map the per-keypoint
	// evidence. pred is -1 when no keypoint matched anything.
	MatchFrame(descs [][]byte) (pred int, votes map[int]int, err error)
	// UploadDescriptors returns how many descriptors of a frame with n
	// extracted keypoints this scheme uploads (the bandwidth driver).
	UploadDescriptors(n int) int
	// MemoryBytes estimates the scheme's resident footprint.
	MemoryBytes() int64
}

func voteWinner(votes map[int]int) int {
	pred, best := -1, 0
	for label, v := range votes {
		if v > best || (v == best && pred != -1 && label < pred) {
			pred, best = label, v
		}
	}
	return pred
}

// BruteForce is the exact-NN matcher over all database descriptors.
type BruteForce struct {
	db      *DB
	workers int
	// MaxDistSq rejects matches farther than this (0 = accept all).
	MaxDistSq int
}

// NewBruteForce creates a brute-force matcher over db.
func NewBruteForce(db *DB) *BruteForce {
	return &BruteForce{db: db, workers: runtime.GOMAXPROCS(0), MaxDistSq: 120000}
}

// Name implements Matcher.
func (b *BruteForce) Name() string { return "BruteForce" }

// UploadDescriptors implements Matcher: brute force uses all keypoints.
func (b *BruteForce) UploadDescriptors(n int) int { return n }

// MemoryBytes implements Matcher: the whole database resides in (GPU)
// memory.
func (b *BruteForce) MemoryBytes() int64 { return b.db.RawBytes() }

// Nearest returns the database index and squared distance of the exact
// nearest neighbor of q, parallelized across the database.
func (b *BruteForce) Nearest(q []byte) (int, int) {
	n := len(b.db.Descs)
	if n == 0 {
		return -1, 0
	}
	workers := b.workers
	if workers < 1 {
		workers = 1
	}
	chunk := (n + workers - 1) / workers
	type best struct{ idx, dist int }
	results := make([]best, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			results[w] = best{-1, 1 << 62}
			continue
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			bi, bd := -1, 1<<62
			for i := lo; i < hi; i++ {
				d := distSq(q, b.db.Descs[i])
				if d < bd {
					bi, bd = i, d
				}
			}
			results[w] = best{bi, bd}
		}(w, lo, hi)
	}
	wg.Wait()
	bi, bd := -1, 1<<62
	for _, r := range results {
		if r.idx >= 0 && r.dist < bd {
			bi, bd = r.idx, r.dist
		}
	}
	return bi, bd
}

// MatchFrame implements Matcher.
func (b *BruteForce) MatchFrame(descs [][]byte) (int, map[int]int, error) {
	votes := make(map[int]int)
	for _, q := range descs {
		idx, dist := b.Nearest(q)
		if idx < 0 {
			continue
		}
		if b.MaxDistSq > 0 && dist > b.MaxDistSq {
			continue
		}
		votes[b.db.Labels[idx]]++
	}
	return voteWinner(votes), votes, nil
}

// distSq is the cluster-stage matching distance — the same kernel the LSH
// query path uses (internal/dist), bit-identical to the scalar sum.
func distSq(a, b []byte) int { return dist.Sq(a, b) }

// LSHMatcher matches via a conventional E2LSH index over the database.
type LSHMatcher struct {
	index *lsh.Index
	db    *DB
	// MaxDistSq rejects weak candidates (0 = accept all).
	MaxDistSq int
	// Subselect, if non-nil, picks which query descriptors are uploaded;
	// nil uploads all (the plain "LSH" scheme).
	Subselect func(descs [][]byte) ([][]byte, error)
	name      string
	uploadN   int
	// clientMem overrides MemoryBytes for schemes whose client-side
	// structure differs from the server index (VisualPrint's downloaded
	// oracle).
	clientMem int64
}

// NewLSH builds the conventional LSH scheme (all keypoints uploaded).
func NewLSH(db *DB, params lsh.Params) (*LSHMatcher, error) {
	ix, err := lsh.NewIndex(params)
	if err != nil {
		return nil, err
	}
	for _, d := range db.Descs {
		if _, err := ix.Insert(d); err != nil {
			return nil, err
		}
	}
	return &LSHMatcher{index: ix, db: db, MaxDistSq: 120000, name: "LSH"}, nil
}

// NewRandom builds the Random-N strawman: n uniformly random query
// keypoints uploaded, LSH matching server-side.
func NewRandom(db *DB, params lsh.Params, n int, seed int64) (*LSHMatcher, error) {
	m, err := NewLSH(db, params)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	m.name = "Random"
	m.uploadN = n
	m.Subselect = func(descs [][]byte) ([][]byte, error) {
		if len(descs) <= n {
			return descs, nil
		}
		idx := rng.Perm(len(descs))[:n]
		out := make([][]byte, n)
		for i, j := range idx {
			out[i] = descs[j]
		}
		return out, nil
	}
	return m, nil
}

// NewVisualPrint builds the full system: the oracle selects the n
// most-unique query keypoints, LSH matching server-side.
func NewVisualPrint(db *DB, params lsh.Params, oracle *core.Oracle, n int) (*LSHMatcher, error) {
	m, err := NewLSH(db, params)
	if err != nil {
		return nil, err
	}
	m.name = "VisualPrint"
	m.uploadN = n
	m.Subselect = func(descs [][]byte) ([][]byte, error) {
		ranked, err := oracle.Rank(descs)
		if err != nil {
			return nil, err
		}
		k := n
		if k > len(ranked) {
			k = len(ranked)
		}
		out := make([][]byte, k)
		for i := 0; i < k; i++ {
			out[i] = descs[ranked[i].Index]
		}
		return out, nil
	}
	// The client's footprint is the oracle, not the index.
	m.clientMem = oracle.MemoryBytes()
	return m, nil
}

// Name implements Matcher.
func (m *LSHMatcher) Name() string { return m.name }

// UploadDescriptors implements Matcher.
func (m *LSHMatcher) UploadDescriptors(n int) int {
	if m.uploadN <= 0 || n < m.uploadN {
		return n
	}
	return m.uploadN
}

// MemoryBytes implements Matcher: the LSH scheme's client would hold the
// full replicated index; Random holds nothing; VisualPrint holds the
// downloaded oracle.
func (m *LSHMatcher) MemoryBytes() int64 {
	switch m.name {
	case "Random":
		return 0
	case "VisualPrint":
		return m.clientMem
	default:
		return m.index.MemoryBytes()
	}
}

// MatchFrame implements Matcher.
func (m *LSHMatcher) MatchFrame(descs [][]byte) (int, map[int]int, error) {
	if m.Subselect != nil {
		var err error
		descs, err = m.Subselect(descs)
		if err != nil {
			return -1, nil, err
		}
	}
	votes := make(map[int]int)
	for _, q := range descs {
		cands, err := m.index.Query(q, lsh.QueryOptions{MaxCandidates: 1, MultiProbe: true})
		if err != nil {
			return -1, nil, err
		}
		if len(cands) == 0 {
			continue
		}
		if m.MaxDistSq > 0 && cands[0].DistSq > m.MaxDistSq {
			continue
		}
		votes[m.db.Labels[cands[0].ID]]++
	}
	return voteWinner(votes), votes, nil
}

// Prediction is one scored query frame.
type Prediction struct {
	True int // ground-truth scene label of the frame
	Pred int // matcher output (-1 = no match)
}

// PR is a per-scene precision/recall pair.
type PR struct {
	Precision, Recall float64
	TP, FP, FN        int
}

// PrecisionRecall computes per-scene retrieval metrics over a prediction
// set, exactly as defined in the paper's evaluation: for scene k, precision
// = |V ∩ P| / |P| and recall = |V ∩ P| / |V|, where V is the set of frames
// truly capturing k and P the set identified as k. Scenes with no truth
// frames and no predictions are omitted.
func PrecisionRecall(preds []Prediction) map[int]PR {
	tp := map[int]int{}
	fp := map[int]int{}
	fn := map[int]int{}
	seen := map[int]bool{}
	for _, p := range preds {
		if p.True >= 0 {
			seen[p.True] = true
		}
		if p.Pred >= 0 {
			seen[p.Pred] = true
		}
		switch {
		case p.Pred == p.True && p.True >= 0:
			tp[p.True]++
		default:
			if p.True >= 0 {
				fn[p.True]++
			}
			if p.Pred >= 0 {
				fp[p.Pred]++
			}
		}
	}
	out := make(map[int]PR, len(seen))
	for k := range seen {
		r := PR{TP: tp[k], FP: fp[k], FN: fn[k]}
		if r.TP+r.FP > 0 {
			r.Precision = float64(r.TP) / float64(r.TP+r.FP)
		}
		if r.TP+r.FN > 0 {
			r.Recall = float64(r.TP) / float64(r.TP+r.FN)
		}
		out[k] = r
	}
	return out
}

// Values extracts a sorted slice of a metric over scenes, for CDF plotting.
func Values(prs map[int]PR, metric func(PR) float64) []float64 {
	out := make([]float64, 0, len(prs))
	for _, pr := range prs {
		out = append(out, metric(pr))
	}
	sort.Float64s(out)
	return out
}

// DimDifferences returns the squared per-dimension differences between two
// descriptors, sorted descending — the quantity whose boxplots form the
// paper's Figure 6a ("few dimensions provide most of the Euclidean
// distance").
func DimDifferences(a, b []byte) ([]float64, error) {
	if len(a) != len(b) {
		return nil, errors.New("match: descriptor length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		d := float64(int(a[i]) - int(b[i]))
		out[i] = d * d
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out, nil
}
