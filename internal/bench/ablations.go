package bench

import (
	"math/rand"

	"visualprint/internal/core"
	"visualprint/internal/lsh"
	"visualprint/internal/wardrive"
)

// ablationWorkload generates SIFT-like descriptors with a controlled
// repeated/unique mix for oracle-parameter ablations. (Synthetic
// descriptors keep the ablations fast; the design choices they exercise —
// verification, multiprobe, counter width, LSH family — are independent of
// the image pipeline.)
type ablationWorkload struct {
	unique   [][]byte
	repeated [][]byte
	rng      *rand.Rand
}

func newAblationWorkload(seed int64, nUnique, nRepeated int) *ablationWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := &ablationWorkload{rng: rng}
	for i := 0; i < nUnique; i++ {
		w.unique = append(w.unique, siftLikeDesc(rng))
	}
	for i := 0; i < nRepeated; i++ {
		w.repeated = append(w.repeated, siftLikeDesc(rng))
	}
	return w
}

func siftLikeDesc(rng *rand.Rand) []byte {
	f := make([]float64, 128)
	var norm float64
	for i := range f {
		if rng.Float64() < 0.4 {
			f[i] = rng.ExpFloat64()
			norm += f[i] * f[i]
		}
	}
	d := make([]byte, 128)
	if norm == 0 {
		d[0] = 255
		return d
	}
	scale := 512 / sqrtNewton(norm)
	for i := range d {
		v := f[i] * scale
		if v > 255 {
			v = 255
		}
		d[i] = byte(v)
	}
	return d
}

func sqrtNewton(x float64) float64 {
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func perturbDesc(rng *rand.Rand, d []byte, amp int) []byte {
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

// oracleQuality trains an oracle on the workload (repeated descriptors
// inserted 50x, unique once) and measures three rates:
//   - separation: fraction of unique descriptors scoring strictly below
//     the median repeated score (the ranking signal the selector needs);
//   - nearRecall: fraction of perturbed unique descriptors still found
//     (multiprobe's job);
//   - fpRate: fraction of never-inserted descriptors scoring nonzero
//     (verification's job).
func oracleQuality(p core.Params, w *ablationWorkload) (separation, nearRecall, fpRate float64, err error) {
	o, err := core.New(p)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, d := range w.repeated {
		for i := 0; i < 50; i++ {
			if err := o.Insert(d); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	for _, d := range w.unique {
		if err := o.Insert(d); err != nil {
			return 0, 0, 0, err
		}
	}
	// Median repeated score.
	var repScores []float64
	for _, d := range w.repeated {
		u, err := o.Uniqueness(d)
		if err != nil {
			return 0, 0, 0, err
		}
		repScores = append(repScores, float64(u))
	}
	medRep := medianOf(repScores)
	below := 0
	for _, d := range w.unique {
		u, _ := o.Uniqueness(d)
		if float64(u) < medRep {
			below++
		}
	}
	separation = float64(below) / float64(len(w.unique))

	rng := rand.New(rand.NewSource(99))
	hits := 0
	for _, d := range w.unique {
		// Strong perturbation: the cross-view descriptor change that
		// pushes features across quantization boundaries.
		u, _ := o.Uniqueness(perturbDesc(rng, d, 5))
		if u > 0 {
			hits++
		}
	}
	nearRecall = float64(hits) / float64(len(w.unique))

	fp := 0
	const fpTrials = 400
	for i := 0; i < fpTrials; i++ {
		q := make([]byte, 128)
		for j := range q {
			q[j] = byte(rng.Intn(256))
		}
		u, _ := o.Uniqueness(q)
		if u > 0 {
			fp++
		}
	}
	fpRate = float64(fp) / fpTrials
	return separation, nearRecall, fpRate, nil
}

// AblationVerification compares oracle false positives with and without the
// verification Bloom filter, under a deliberately undersized primary filter
// (the hotspot regime the paper built verification for).
func AblationVerification() (*Experiment, error) {
	e := &Experiment{
		ID: "ablation-verification", Title: "Verification filter vs false positives",
		XLabel: "0=off 1=on", YLabel: "rate",
	}
	w := newAblationWorkload(1, 400, 40)
	for i, on := range []bool{false, true} {
		p := core.TestParams()
		p.CountersPerTable = 1 << 12 // force hotspots
		if !on {
			p.VerifyBits = 0
		}
		sep, rec, fp, err := oracleQuality(p, w)
		if err != nil {
			return nil, err
		}
		e.Points = append(e.Points,
			Point{Series: "false-positive rate", X: float64(i), Y: fp},
			Point{Series: "near-duplicate recall", X: float64(i), Y: rec},
			Point{Series: "unique/repeated separation", X: float64(i), Y: sep},
		)
		e.Notef("verification=%v: fp=%.3f recall=%.3f separation=%.3f", on, fp, rec, sep)
	}
	return e, nil
}

// AblationMultiprobe compares near-duplicate recall with and without
// multiprobe (adjacent-bucket probing and K-1-of-K partial matches).
func AblationMultiprobe() (*Experiment, error) {
	e := &Experiment{
		ID: "ablation-multiprobe", Title: "Multiprobe vs quantization false negatives",
		XLabel: "0=off 1=on", YLabel: "rate",
	}
	w := newAblationWorkload(2, 400, 40)
	for i, on := range []bool{false, true} {
		p := core.TestParams()
		p.MultiProbe = on
		sep, rec, fp, err := oracleQuality(p, w)
		if err != nil {
			return nil, err
		}
		e.Points = append(e.Points,
			Point{Series: "near-duplicate recall", X: float64(i), Y: rec},
			Point{Series: "false-positive rate", X: float64(i), Y: fp},
		)
		e.Notef("multiprobe=%v: recall=%.3f fp=%.3f separation=%.3f", on, rec, fp, sep)
	}
	return e, nil
}

// AblationSaturation sweeps the counting-filter counter width (the paper
// chose 10 bits / saturation 1024 specifically to absorb hotspots). The
// effect shows in the hotspot regime: an undersized filter inflates unique
// descriptors' counts through collisions; narrow counters then saturate at
// a level collided-unique and truly-repeated features share, flattening
// the ranking.
func AblationSaturation() (*Experiment, error) {
	e := &Experiment{
		ID: "ablation-saturation", Title: "Counter width vs ranking quality",
		XLabel: "counter bits", YLabel: "separation",
	}
	// The count saturating early does not hurt the unique-vs-common split
	// (count-min keeps unique features low), but it destroys the *partial
	// ordering* among common features that the paper relies on: "uniqueness
	// counts (up to the saturation point of 1024) yield a partial ordering,
	// ranking keypoints from highly unique to common". Measure ordering
	// accuracy across descriptors with known multiplicities.
	multiplicities := []int{1, 5, 20, 80, 300}
	const perGroup = 30
	rng := rand.New(rand.NewSource(123))
	groups := make([][][]byte, len(multiplicities))
	for g := range groups {
		for i := 0; i < perGroup; i++ {
			groups[g] = append(groups[g], siftLikeDesc(rng))
		}
	}
	for _, bits := range []uint{4, 6, 8, 10} {
		p := core.TestParams()
		p.CounterBits = bits
		o, err := core.New(p)
		if err != nil {
			return nil, err
		}
		for g, m := range multiplicities {
			for _, d := range groups[g] {
				for k := 0; k < m; k++ {
					if err := o.Insert(d); err != nil {
						return nil, err
					}
				}
			}
		}
		counts := make([][]uint32, len(groups))
		for g := range groups {
			for _, d := range groups[g] {
				u, err := o.Uniqueness(d)
				if err != nil {
					return nil, err
				}
				counts[g] = append(counts[g], u)
			}
		}
		// Pairwise ordering accuracy across distinct-multiplicity groups.
		correct, total := 0, 0
		for g1 := 0; g1 < len(groups); g1++ {
			for g2 := g1 + 1; g2 < len(groups); g2++ {
				for _, a := range counts[g1] {
					for _, b := range counts[g2] {
						total++
						if a < b {
							correct++
						}
					}
				}
			}
		}
		acc := float64(correct) / float64(total)
		e.Points = append(e.Points, Point{Series: "ordering accuracy", X: float64(bits), Y: acc})
		e.Notef("%d-bit counters: multiplicity ordering accuracy %.3f (saturation %d)",
			bits, acc, (1<<bits)-1)
	}
	return e, nil
}

// AblationLSHParams sweeps L, M and W around the paper's (10, 7, 500).
func AblationLSHParams() (*Experiment, error) {
	e := &Experiment{
		ID: "ablation-lsh", Title: "LSH parameter sweep",
		XLabel: "variant", YLabel: "rate",
	}
	w := newAblationWorkload(4, 300, 30)
	variants := []struct {
		name   string
		mutate func(*lsh.Params)
	}{
		{"paper(L10,M7,W500)", func(p *lsh.Params) {}},
		{"L4", func(p *lsh.Params) { p.L = 4 }},
		{"M3", func(p *lsh.Params) { p.M = 3 }},
		{"M12", func(p *lsh.Params) { p.M = 12 }},
		{"W100", func(p *lsh.Params) { p.W = 100 }},
		{"W2000", func(p *lsh.Params) { p.W = 2000 }},
	}
	for i, v := range variants {
		p := core.TestParams()
		v.mutate(&p.LSH)
		sep, rec, fp, err := oracleQuality(p, w)
		if err != nil {
			return nil, err
		}
		e.Points = append(e.Points,
			Point{Series: "separation", X: float64(i), Y: sep},
			Point{Series: "near-duplicate recall", X: float64(i), Y: rec},
			Point{Series: "false-positive rate", X: float64(i), Y: fp},
		)
		e.Notef("%s: separation=%.3f recall=%.3f fp=%.3f", v.name, sep, rec, fp)
	}
	return e, nil
}

// AblationICP measures wardriving map error with and without ICP
// correction, on the office venue with amplified drift.
func AblationICP(sc Scale) (*Experiment, error) {
	e := &Experiment{
		ID: "ablation-icp", Title: "ICP drift correction",
		XLabel: "0=off 1=on", YLabel: "mean map error (m)",
	}
	specs := venueSpecs(sc)
	world := specFromName(specs, "office")
	cfg := wardriveConfig(sc)
	cfg.Drift.PosStddevPerMeter = 0.08
	snaps, err := wardrive.Walk(world, cfg)
	if err != nil {
		return nil, err
	}
	before, after, err := wardrive.CorrectDrift(snaps)
	if err != nil {
		return nil, err
	}
	e.Points = append(e.Points,
		Point{Series: "map error", X: 0, Y: before},
		Point{Series: "map error", X: 1, Y: after},
	)
	e.Notef("mean keypoint position error: %.2f m drifted, %.2f m after ICP", before, after)
	return e, nil
}
