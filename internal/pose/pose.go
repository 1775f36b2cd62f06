// Package pose estimates the client's 3D camera position from 2D-3D
// keypoint correspondences, implementing the nonlinear optimization of the
// paper's Figure 12 over the angular geometry of Figure 11.
//
// For each pair of matched keypoints (i, j), the angle between them as seen
// from the camera is known from their pixel coordinates and the camera's
// field of view (gamma in Figure 11). For a hypothesized camera position
// (x, y, z), the same angle is implied by the law of cosines against the
// known 3D positions of the two keypoints. The optimizer searches for the
// position that minimizes the summed angular residuals E over all pairs,
// separately on the X/Z and Y/Z planes as the paper formulates it.
//
// As in the paper ("we solve the localization optimization using a
// time-bounded differential evolution"), the venue-wide solve is a bounded
// differential-evolution search over the venue's bounding box with an
// evaluation/time budget. The DE is the synchronous-generation rand/1/bin
// variant: every RNG draw happens serially in index order, each
// generation's trial population is derived from the generation-start
// snapshot, and only then are the trials evaluated — on a pool of
// GOMAXPROCS workers — so the result is bit-identical for the fixed seed at
// any worker count (see DESIGN.md "Performance"). The search ends at the
// generation budget, Options.Deadline, or population convergence (deTol),
// whichever comes first. The two solves that start from a prior do not
// search the venue: LocalizeCold (seed.go) polishes the best closed-form P3P
// hypothesis, and LocalizeWarm a tracking session's prediction, with a
// restarted Nelder–Mead simplex inside a box around it (refine.go). The cold
// one falls back to the venue-wide DE when its answer lands on that box's
// edge.
package pose

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"visualprint/internal/mathx"
)

// Intrinsics describes the query camera: image size and horizontal/vertical
// fields of view.
type Intrinsics struct {
	W, H       int
	FovX, FovY float64
}

// Correspondence pairs an observed pixel with the known 3D position
// retrieved from the server's lookup table.
type Correspondence struct {
	Px, Py float64
	P      mathx.Vec3
}

// gamma implements Figure 12's gamma(p, C, F, S) with sign retained: the
// angle from the optical axis to the keypoint's projection on one image
// axis.
func gamma(p, c, fov float64, s float64) float64 {
	return math.Atan((p - c) * math.Tan(fov/2) / (s / 2))
}

// pairGeometry holds, for one keypoint pair, the two observed angles and the
// indices of its endpoints in the solve's compact point list. Everything
// that depends on the trial camera position lives per point (ptDir), not per
// pair: the ~300 pairs of a default solve draw on ~80 points, so a point's
// direction is computed once per trial instead of once per pair it is in.
//
// The paper's Figure 12 splits the constraint into X/Z- and Y/Z-plane
// angles. The X/Z (azimuthal) split is exact for an upright camera — the
// azimuth difference between two keypoints does not depend on the unknown
// yaw. The Y/Z split, however, is only yaw-invariant when the camera faces
// +Z; used verbatim it conditions the solve poorly. We therefore keep the
// paper's azimuthal term and replace the vertical term with the full 3D
// pairwise angle (the angle between the two pixel rays), which is invariant
// to the entire unknown rotation and subsumes the vertical constraint.
type pairGeometry struct {
	ia, ib int32   // endpoints, as indices into problem.pts
	g3     float64 // observed full 3D angle between the two rays
	gx     float64 // observed azimuthal separation (absolute, radians)
}

// ptDir is one point's direction from a trial camera position: the unit 3D
// vector and the unit vector of its X/Z-plane projection. A pair's two
// cosines are then plain dot products — no square root, no division. ok3/okx
// are all ones (dirOK) when the direction is defined and zero when the camera
// sits (numerically) on the point or directly above or below it. As masks,
// a pair's two endpoints AND into the pair's flag, in residual and in each
// lane of pairSum2 alike. pairSum2 loads (ux, uy), (uz, hx) and (ok3, okx)
// as 16-byte pairs, so the field order is part of the kernel's contract.
type ptDir struct {
	ux, uy, uz float64
	hx, hz     float64
	ok3, okx   uint64
}

// dirOK is ptDir's flag of a defined direction.
const dirOK = ^uint64(0)

// minRangeSq is the squared camera-to-point range at or below which a
// direction counts as degenerate; the term it enters is then pi, the worst
// case.
const minRangeSq = 1e-12

// direction fills d for point p seen from (x, y, z).
func (d *ptDir) direction(p mathx.Vec3, x, y, z float64) {
	dx, dy, dz := p.X-x, p.Y-y, p.Z-z
	rx := dx*dx + dz*dz
	r3 := rx + dy*dy
	*d = ptDir{}
	if r3 > minRangeSq {
		inv := 1 / math.Sqrt(r3)
		d.ux, d.uy, d.uz, d.ok3 = dx*inv, dy*inv, dz*inv, dirOK
	}
	if rx > minRangeSq {
		inv := 1 / math.Sqrt(rx)
		d.hx, d.hz, d.okx = dx*inv, dz*inv, dirOK
	}
}

// acos approximates math.Acos by Abramowitz & Stegun 4.4.46,
// sqrt(1-|x|) * P7(|x|), reflected through pi/2 for negative x; the argument
// is clamped to [-1, 1] (a dot of two unit vectors can exceed 1 by an ulp).
// The absolute error is at most 2.2e-8 rad (at x = 0, where the two branches
// meet with a 4.4e-8 step down — the function stays non-increasing), five
// orders of magnitude below the 4e-3 rad one pixel subtends at 240 px / 60
// degrees. acos(1) is exactly 0 and acos(-1) exactly math.Pi; a NaN passes
// the clamp and comes out NaN. It costs one square root and seven
// multiply-adds — a fraction of math.Acos, which is pure Go on amd64 — and
// the objective calls it twice per pair per trial. The ACOS macro of
// residual_amd64.s is this function two lanes at a time, step for step: the
// clamp a MINPD, the reflection a select on x < 0. An edit here is an edit
// there; TestPairSumMatchesGeneric holds the two together.
func acos(x float64) float64 {
	ax := math.Abs(x)
	if ax > 1 {
		ax = 1
	}
	p := -0.0012624911
	p = p*ax + 0.0066700901
	p = p*ax - 0.0170881256
	p = p*ax + 0.0308918810
	p = p*ax - 0.0501743046
	p = p*ax + 0.0889789874
	p = p*ax - 0.2145988016
	p = p*ax + 1.5707963050
	r := math.Sqrt(1-ax) * p
	if x < 0 {
		return math.Pi - r
	}
	return r
}

// residualCap truncates per-pair angular errors so a few wrong
// correspondences (post-clustering residue) cannot dominate the objective.
const residualCap = 0.5

// residual returns the pair's truncated angular error given its endpoints'
// directions from the trial position: the full-3D-angle term plus half the
// paper's azimuthal (X/Z plane) term. Both terms are non-negative, so once
// the 3D term alone reaches the cap the azimuthal one is skipped. This is
// the generic twin of pairSum2's lanes (residual_amd64.s), which compute
// both terms always and turn each branch here into a mask select: the
// degenerate flags, the early return at the cap (so a NaN in the skipped
// term cannot leak) and the final cap, which is a MINPD.
func (pg *pairGeometry) residual(a, b *ptDir) float64 {
	e3 := math.Pi // worst case when degenerate
	if a.ok3&b.ok3 != 0 {
		e3 = math.Abs(acos(a.ux*b.ux+a.uy*b.uy+a.uz*b.uz) - pg.g3)
	}
	if e3 >= residualCap {
		return residualCap
	}
	ex := math.Pi
	if a.okx&b.okx != 0 {
		ex = math.Abs(acos(a.hx*b.hx+a.hz*b.hz) - pg.gx)
	}
	e := e3 + 0.5*ex
	if e > residualCap {
		e = residualCap
	}
	return e
}

// problem is the position-independent part of one solve: the kept pairs and
// the compact list of the points they reference, plus the camera-frame unit
// ray of every correspondence (the closed-form hypotheses of seed.go draw on
// all of them, not only on the kept pairs' endpoints).
type problem struct {
	pts   []mathx.Vec3
	pairs []pairGeometry
	rays  []mathx.Vec3
}

// newProblem builds the pair geometry of a solve. All n(n-1)/2 pairs are
// candidates; when that exceeds maxPairs (> 0) a seeded shuffle picks which
// to keep. Only an index list is shuffled and only kept pairs are built, so
// set-up is O(n) rays and O(maxPairs) angles, not O(n^2) of either.
func newProblem(corr []Correspondence, intr Intrinsics, maxPairs int, rng *rand.Rand) problem {
	// Pixel rays in the camera frame: square pixels are assumed, so one
	// focal length serves both axes.
	cx, cy := float64(intr.W)/2, float64(intr.H)/2
	focal := cx / math.Tan(intr.FovX/2)
	rays := make([]mathx.Vec3, len(corr))
	gammas := make([]float64, len(corr))
	for i, c := range corr {
		rays[i] = mathx.Vec3{X: (c.Px - cx) / focal, Y: -(c.Py - cy) / focal, Z: 1}.Normalize()
		gammas[i] = gamma(c.Px, cx, intr.FovX, float64(intr.W))
	}
	idx := make([][2]int32, 0, len(corr)*(len(corr)-1)/2)
	for i := range corr {
		for j := i + 1; j < len(corr); j++ {
			idx = append(idx, [2]int32{int32(i), int32(j)})
		}
	}
	if maxPairs > 0 && len(idx) > maxPairs {
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		idx = idx[:maxPairs]
	}
	pr := problem{pairs: make([]pairGeometry, len(idx)), rays: rays}
	compact := make([]int32, len(corr)) // corr index -> pts index + 1; 0 = not yet referenced
	ref := func(i int32) int32 {
		if compact[i] == 0 {
			pr.pts = append(pr.pts, corr[i].P)
			compact[i] = int32(len(pr.pts))
		}
		return compact[i] - 1
	}
	for k, ij := range idx {
		i, j := ij[0], ij[1]
		pr.pairs[k] = pairGeometry{
			ia: ref(i),
			ib: ref(j),
			g3: math.Acos(mathx.Clamp(rays[i].Dot(rays[j]), -1, 1)),
			gx: math.Abs(gammas[i] - gammas[j]),
		}
	}
	return pr
}

// The solve's fixed values. solveMaxPairs and solveSeed shape every solve's
// objective; the rest are the venue-wide DE's — the refiner that
// LocalizeCold and LocalizeWarm run from a prior has a constant step and
// stop of its own (refine.go).
const (
	// solveMaxPairs caps the keypoint pairs entering the objective: pairs
	// grow quadratically and a subsample suffices.
	solveMaxPairs = 300
	// solveSeed seeds the pair shuffle and the DE, which makes every solve
	// a function of its inputs (with Options.Deadline off).
	solveSeed = 1
	// dePopSize is the DE population.
	dePopSize = 48
	// deMaxIterations bounds the DE's generations.
	deMaxIterations = 150
	// deF and deCR are the DE's differential weight and crossover rate.
	deF, deCR = 0.7, 0.9
	// deTol stops the search once the population has converged: after a
	// generation's selection, if std(cost) <= deTol*|mean(cost)| the
	// remaining generations cannot meaningfully improve the answer. This is
	// the convergence criterion of scipy's differential_evolution (its
	// default is 0.01; this is a more conservative 0.001).
	deTol = 0.001
)

// Options holds the pose solvers' one setting.
type Options struct {
	// Deadline, if positive, stops the venue-wide search after this
	// wall-clock budget (the paper's "time-bounded" solve); 0 makes the
	// answer independent of the clock.
	Deadline time.Duration
}

// DefaultOptions returns the serving default: a 150 ms budget.
func DefaultOptions() Options {
	return Options{Deadline: 150 * time.Millisecond}
}

// Result reports a localization solve.
type Result struct {
	Position mathx.Vec3
	Residual float64 // mean angular residual (radians per pair)
	Evals    int
	Yaw      float64 // estimated heading (radians)
}

// Generations is r.Evals in units of the venue-wide DE's population: a
// venue-wide solve's generation count, initialization included, and the
// work of a seeded or warm solve in the same unit.
func (r Result) Generations() int { return r.Evals / dePopSize }

// objective sums the pair residuals for trial v, aborting as soon as the
// partial sum reaches limit; dirs is the caller's scratch, len(pr.pts) long.
// Residuals are non-negative and IEEE float addition of non-negative terms
// is monotonic, so an aborted evaluation's full sum would also have been >=
// limit; callers that compare the return value against limit with a strict <
// therefore decide exactly as if the full sum had been computed, while a
// typical late-generation losing trial costs a fraction of a full
// evaluation. Winning trials (sum stays below limit throughout) are summed
// in full, in pair order — bit-identical to the unconditional evaluation.
// A dirs shorter than pr.pts panics in the direction loop, before any pair
// is read.
func (pr *problem) objective(v [3]float64, dirs []ptDir, limit float64) float64 {
	for i, p := range pr.pts {
		dirs[i].direction(p, v[0], v[1], v[2])
	}
	return pairSum(pr.pairs, dirs, limit)
}

// pairSumGeneric adds the residuals of pairs to s in pair order and returns
// the sum as soon as it reaches limit, or after the last pair. It is the
// generic twin of the amd64 kernel pairSum2: it runs an odd last pair there
// and every pair elsewhere, and it is the kernel's parity reference.
func pairSumGeneric(pairs []pairGeometry, dirs []ptDir, s, limit float64) float64 {
	for k := range pairs {
		pg := &pairs[k]
		s += pg.residual(&dirs[pg.ia], &dirs[pg.ib])
		if s >= limit {
			return s
		}
	}
	return s
}

// LocalizeContext estimates the camera position from correspondences
// within the axis-aligned search box [lo, hi] by the venue-wide DE. The
// context is checked once per generation, so a canceled or expired request
// stops burning CPU within one generation (dePopSize objective evaluations)
// instead of running out its full budget. A cancellation returns ctx.Err()
// with a Result holding only the evaluations spent. The check consumes no
// randomness, so a context that never fires leaves results bit-identical.
func LocalizeContext(ctx context.Context, corr []Correspondence, intr Intrinsics, lo, hi mathx.Vec3, opt Options) (Result, error) {
	pr, rng, err := newSolve(corr, intr)
	if err != nil {
		return Result{}, err
	}
	return pr.search(ctx, rng, corr, intr, lo, hi, opt.Deadline, runtime.GOMAXPROCS(0), deMaxIterations)
}

// newSolve validates a solve's inputs and builds its problem from a fresh
// stream of solveSeed; the stream is returned positioned just after the pair
// shuffle, where the DE draws from it.
func newSolve(corr []Correspondence, intr Intrinsics) (problem, *rand.Rand, error) {
	if len(corr) < 3 {
		return problem{}, nil, errors.New("pose: need at least 3 correspondences")
	}
	if intr.W <= 0 || intr.H <= 0 || intr.FovX <= 0 || intr.FovY <= 0 {
		return problem{}, nil, errors.New("pose: invalid intrinsics")
	}
	rng := rand.New(rand.NewSource(solveSeed))
	return newProblem(corr, intr, solveMaxPairs, rng), rng, nil
}

// search is the differential-evolution body of LocalizeContext over a built
// problem: rng is the solve's stream positioned just after newProblem's pair
// shuffle, deadline is Options.Deadline, and each generation's trials are
// evaluated by up to workers goroutines for at most generations generations.
// The serving callers pass GOMAXPROCS and deMaxIterations; tests vary both.
func (pr *problem) search(ctx context.Context, rng *rand.Rand, corr []Correspondence, intr Intrinsics, lo, hi mathx.Vec3, deadline time.Duration, workers, generations int) (Result, error) {
	span := [3]float64{hi.X - lo.X, hi.Y - lo.Y, hi.Z - lo.Z}
	lov := [3]float64{lo.X, lo.Y, lo.Z}
	sample := func() [3]float64 {
		return [3]float64{
			lov[0] + rng.Float64()*span[0],
			lov[1] + rng.Float64()*span[1],
			lov[2] + rng.Float64()*span[2],
		}
	}

	// Differential evolution, synchronous-generation rand/1/bin: trials are
	// derived from the generation-start population with all RNG draws in
	// serial index order, then evaluated (possibly in parallel), then
	// selected. Each trial's evaluation is an independent serial summation,
	// so the outcome does not depend on the worker count.
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	evals := 0
	pop := make([][3]float64, dePopSize)
	cost := make([]float64, dePopSize)
	dirs := make([]ptDir, len(pr.pts))
	for i := range pop {
		pop[i] = sample()
		cost[i] = pr.objective(pop[i], dirs, math.Inf(1))
	}
	evals += dePopSize
	trials := make([][3]float64, dePopSize)
	trialCost := make([]float64, dePopSize)
	evaluate := newBatchEvaluator(workers, pr, dirs, trials, trialCost, cost)
	start := time.Now()
	for iter := 0; iter < generations; iter++ {
		if deadline > 0 && time.Since(start) > deadline {
			break
		}
		// Cooperative cancellation, once per generation: the caller's
		// request died or expired, so the remaining budget is wasted work.
		if err := ctx.Err(); err != nil {
			return Result{Evals: evals}, err
		}
		for i := range pop {
			a, b, c := rng.Intn(dePopSize), rng.Intn(dePopSize), rng.Intn(dePopSize)
			var trial [3]float64
			jrand := rng.Intn(3)
			for d := 0; d < 3; d++ {
				if d == jrand || rng.Float64() < deCR {
					trial[d] = pop[a][d] + deF*(pop[b][d]-pop[c][d])
				} else {
					trial[d] = pop[i][d]
				}
				trial[d] = mathx.Clamp(trial[d], lov[d], lov[d]+span[d])
			}
			trials[i] = trial
		}
		evaluate()
		evals += dePopSize
		for i := range pop {
			// A trial whose evaluation aborted returns a partial sum that is
			// >= cost[i] by construction, so the strict < rejects it exactly
			// as the full sum would have.
			if trialCost[i] < cost[i] {
				pop[i], cost[i] = trials[i], trialCost[i]
			}
		}
		if converged(cost) {
			break
		}
	}
	best := 0
	for i := 1; i < dePopSize; i++ {
		if cost[i] < cost[best] {
			best = i
		}
	}
	pos := mathx.Vec3{X: pop[best][0], Y: pop[best][1], Z: pop[best][2]}
	res := Result{
		Position: pos,
		Residual: cost[best] / float64(len(pr.pairs)),
		Evals:    evals,
		Yaw:      EstimateYaw(corr, intr, pos),
	}
	return res, nil
}

// newBatchEvaluator returns a function that fills trialCost[i] =
// pr.objective(trials[i], ·, cost[i]) for every i, splitting the population
// across at most workers goroutines. Each index is evaluated by exactly one
// worker against the generation-start cost snapshot, so the filled values
// are identical at any worker count. dirs is the direction scratch of the
// inline path; the pool gets one scratch per worker, allocated here once.
func newBatchEvaluator(workers int, pr *problem, dirs []ptDir, trials [][3]float64, trialCost, cost []float64) func() {
	n := len(trials)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return func() {
			for i := 0; i < n; i++ {
				trialCost[i] = pr.objective(trials[i], dirs, cost[i])
			}
		}
	}
	scratch := make([][]ptDir, workers)
	for w := range scratch {
		scratch[w] = make([]ptDir, len(dirs))
	}
	return func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * n / workers
			hi := (w + 1) * n / workers
			if lo == hi {
				continue
			}
			wg.Add(1)
			go func(lo, hi int, dirs []ptDir) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					trialCost[i] = pr.objective(trials[i], dirs, cost[i])
				}
			}(lo, hi, scratch[w])
		}
		wg.Wait()
	}
}

// converged reports whether the population's cost spread has collapsed
// below the relative tolerance: std(cost) <= deTol*|mean(cost)| — the same
// criterion scipy's differential_evolution uses. Costs hold only fully
// evaluated (never aborted) sums, so the decision depends on true
// objective values and is identical at any worker count.
func converged(cost []float64) bool {
	var mean float64
	for _, c := range cost {
		mean += c
	}
	mean /= float64(len(cost))
	var s2 float64
	for _, c := range cost {
		d := c - mean
		s2 += d * d
	}
	return math.Sqrt(s2/float64(len(cost))) <= deTol*math.Abs(mean)
}

// EstimateYaw recovers the camera heading given its position: for each
// correspondence, the world bearing to the 3D point minus the in-image
// bearing of its pixel gives one yaw estimate; the circular mean is
// returned. Together with the solved (x, y, z) this provides the
// "positioning fidelity similar to Google Tango, but with only a standard,
// 2D, RGB camera".
func EstimateYaw(corr []Correspondence, intr Intrinsics, pos mathx.Vec3) float64 {
	cx := float64(intr.W) / 2
	var sumSin, sumCos float64
	for _, c := range corr {
		worldBearing := math.Atan2(c.P.X-pos.X, c.P.Z-pos.Z)
		imageBearing := gamma(c.Px, cx, intr.FovX, float64(intr.W))
		yaw := worldBearing - imageBearing
		sumSin += math.Sin(yaw)
		sumCos += math.Cos(yaw)
	}
	return math.Atan2(sumSin, sumCos)
}
