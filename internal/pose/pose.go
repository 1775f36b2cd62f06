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
// time-bounded differential evolution"), the solver is a bounded
// differential-evolution search over the venue's bounding box with an
// evaluation/time budget. The DE is the synchronous-generation rand/1/bin
// variant: every RNG draw happens serially in index order, each
// generation's trial population is derived from the generation-start
// snapshot, and only then are the trials evaluated — on a bounded worker
// pool when Options.Workers allows — so the result is bit-identical for a
// fixed seed at any worker count (see DESIGN.md "Performance"). The search
// ends at the evaluation budget, the deadline, or Options.Tol population
// convergence, whichever comes first.
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
// are false when the camera sits (numerically) on the point or directly
// above or below it, where the direction is undefined.
type ptDir struct {
	ux, uy, uz float64
	hx, hz     float64
	ok3, okx   bool
}

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
		d.ux, d.uy, d.uz, d.ok3 = dx*inv, dy*inv, dz*inv, true
	}
	if rx > minRangeSq {
		inv := 1 / math.Sqrt(rx)
		d.hx, d.hz, d.okx = dx*inv, dz*inv, true
	}
}

// acos approximates math.Acos by Abramowitz & Stegun 4.4.46,
// sqrt(1-|x|) * P7(|x|), reflected through pi/2 for negative x; the argument
// is clamped to [-1, 1] (a dot of two unit vectors can exceed 1 by an ulp).
// The absolute error is at most 2.2e-8 rad (at x = 0, where the two branches
// meet with a 4.4e-8 step down — the function stays non-increasing), five
// orders of magnitude below the 4e-3 rad one pixel subtends at 240 px / 60
// degrees. acos(1) is exactly 0 and acos(-1) exactly math.Pi. It costs one
// square root and seven multiply-adds — a fraction of math.Acos, which is
// pure Go on amd64 — and the objective calls it twice per pair per trial.
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
// the 3D term alone reaches the cap the azimuthal one is skipped.
func (pg *pairGeometry) residual(a, b *ptDir) float64 {
	e3 := math.Pi // worst case when degenerate
	if a.ok3 && b.ok3 {
		e3 = math.Abs(acos(a.ux*b.ux+a.uy*b.uy+a.uz*b.uz) - pg.g3)
	}
	if e3 >= residualCap {
		return residualCap
	}
	ex := math.Pi
	if a.okx && b.okx {
		ex = math.Abs(acos(a.hx*b.hx+a.hz*b.hz) - pg.gx)
	}
	e := e3 + 0.5*ex
	if e > residualCap {
		e = residualCap
	}
	return e
}

// problem is the position-independent part of one solve: the kept pairs and
// the compact list of the points they reference.
type problem struct {
	pts   []mathx.Vec3
	pairs []pairGeometry
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
	pr := problem{pairs: make([]pairGeometry, len(idx))}
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

// Options tunes the differential-evolution solver.
type Options struct {
	// PopSize is the DE population size.
	PopSize int
	// MaxIterations bounds DE generations.
	MaxIterations int
	// Deadline, if positive, stops the search after this wall-clock
	// budget (the paper's "time-bounded" solve).
	Deadline time.Duration
	// F and CR are the DE differential weight and crossover rate.
	F, CR float64
	// MaxPairs caps the number of keypoint pairs entering the objective
	// (pairs grow quadratically; a subsample suffices). 0 means all.
	MaxPairs int
	// Seed makes the search deterministic.
	Seed int64
	// Workers bounds the pool evaluating each generation's trials.
	// 0 uses GOMAXPROCS; 1 evaluates inline. All RNG draws are serial
	// regardless, so the result is identical at any worker count
	// (pinned by TestLocalizeWorkerCountBitIdentical).
	Workers int
	// Tol stops the search once the population has converged: after a
	// generation's selection, if std(cost) <= Tol*|mean(cost)| the
	// remaining generations cannot meaningfully improve the answer and
	// are skipped. This is the convergence criterion of scipy's
	// differential_evolution (its default is 0.01; we default to a more
	// conservative 0.001). <= 0 disables the check and always runs the
	// full MaxIterations budget.
	Tol float64
	// PriorPos and PriorRadius warm-start the search from a predicted
	// camera position (a tracking session's motion-model extrapolation —
	// see internal/track). When PriorRadius > 0 the search box is
	// intersected with the axis-aligned cube PriorPos ± PriorRadius
	// (when the intersection is non-empty; a prior entirely outside the
	// caller's box is ignored) and the first member of the initial
	// population is pinned to the clamped prior itself, so a good prior
	// converges in a fraction of the cold generations via the Tol stop.
	//
	// Bit-identity contract: PriorRadius == 0 leaves every code path,
	// bound, and RNG draw of the solve untouched — a solve without a
	// prior is Float64bits-identical to one on a build that predates
	// these fields (pinned by TestLocalizeZeroPriorBitIdentical).
	PriorPos    mathx.Vec3
	PriorRadius float64
	// MinResidual > 0 stops the search once the best population member's
	// mean per-pair residual (radians) has dropped to this value — an
	// absolute "good enough" criterion complementing the relative Tol
	// stop, which cannot fire when the optimum cost approaches zero
	// (std and mean shrink together). Warm-started tracking solves use
	// it to bank the prior's head start instead of polishing an already
	// sub-millimeter answer for the full budget. 0 disables the check
	// (the cold default), leaving results bit-identical.
	MinResidual float64
}

// DefaultOptions returns solver settings tuned for indoor venues.
func DefaultOptions() Options {
	return Options{
		PopSize:       48,
		MaxIterations: 150,
		Deadline:      150 * time.Millisecond,
		F:             0.7,
		CR:            0.9,
		MaxPairs:      300,
		Seed:          1,
		Tol:           0.001,
	}
}

// Result reports a localization solve.
type Result struct {
	Position mathx.Vec3
	Residual float64 // mean angular residual (radians per pair)
	Evals    int
	Yaw      float64 // estimated heading (radians)
}

// objective sums the pair residuals for trial v, aborting as soon as the
// partial sum reaches limit; dirs is the caller's scratch, len(pr.pts) long.
// Residuals are non-negative and IEEE float addition of non-negative terms
// is monotonic, so an aborted evaluation's full sum would also have been >=
// limit; callers that compare the return value against limit with a strict <
// therefore decide exactly as if the full sum had been computed, while a
// typical late-generation losing trial costs a fraction of a full
// evaluation. Winning trials (sum stays below limit throughout) are summed
// in full, in pair order — bit-identical to the unconditional evaluation.
func (pr *problem) objective(v [3]float64, dirs []ptDir, limit float64) float64 {
	for i, p := range pr.pts {
		dirs[i].direction(p, v[0], v[1], v[2])
	}
	var s float64
	for k := range pr.pairs {
		pg := &pr.pairs[k]
		s += pg.residual(&dirs[pg.ia], &dirs[pg.ib])
		if s >= limit {
			return s
		}
	}
	return s
}

// Localize estimates the camera position from correspondences within the
// axis-aligned search box [lo, hi]. It is LocalizeContext without
// cancellation.
func Localize(corr []Correspondence, intr Intrinsics, lo, hi mathx.Vec3, opt Options) (Result, error) {
	return LocalizeContext(context.Background(), corr, intr, lo, hi, opt)
}

// LocalizeContext is Localize with cooperative cancellation: the context is
// checked once per DE generation, so a canceled or expired request stops
// burning CPU within one generation (~PopSize objective evaluations) instead
// of running out its full iteration/deadline budget. A cancellation before
// the first generation completes returns ctx.Err(); the search otherwise
// proceeds exactly as Localize — the context check consumes no randomness,
// so a context that never fires leaves results bit-identical.
func LocalizeContext(ctx context.Context, corr []Correspondence, intr Intrinsics, lo, hi mathx.Vec3, opt Options) (Result, error) {
	if len(corr) < 3 {
		return Result{}, errors.New("pose: need at least 3 correspondences")
	}
	if intr.W <= 0 || intr.H <= 0 || intr.FovX <= 0 || intr.FovY <= 0 {
		return Result{}, errors.New("pose: invalid intrinsics")
	}
	if opt.PopSize < 8 {
		opt.PopSize = 8
	}
	if opt.MaxIterations <= 0 {
		opt.MaxIterations = 100
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	pr := newProblem(corr, intr, opt.MaxPairs, rng)

	warm := false
	if opt.PriorRadius > 0 {
		plo := mathx.Vec3{X: opt.PriorPos.X - opt.PriorRadius, Y: opt.PriorPos.Y - opt.PriorRadius, Z: opt.PriorPos.Z - opt.PriorRadius}
		phi := mathx.Vec3{X: opt.PriorPos.X + opt.PriorRadius, Y: opt.PriorPos.Y + opt.PriorRadius, Z: opt.PriorPos.Z + opt.PriorRadius}
		if ilo, ihi, ok := intersectBox(lo, hi, plo, phi); ok {
			lo, hi = ilo, ihi
			warm = true
		}
	}
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
	pop := make([][3]float64, opt.PopSize)
	cost := make([]float64, opt.PopSize)
	dirs := make([]ptDir, len(pr.pts))
	for i := range pop {
		pop[i] = sample()
		if warm && i == 0 {
			// Pin one member to the predicted pose itself (sample() above
			// still ran, keeping the RNG stream uniform across the
			// population regardless of the prior).
			pp := [3]float64{opt.PriorPos.X, opt.PriorPos.Y, opt.PriorPos.Z}
			for d := 0; d < 3; d++ {
				pop[i][d] = mathx.Clamp(pp[d], lov[d], lov[d]+span[d])
			}
		}
		cost[i] = pr.objective(pop[i], dirs, math.Inf(1))
	}
	evals += opt.PopSize
	trials := make([][3]float64, opt.PopSize)
	trialCost := make([]float64, opt.PopSize)
	evaluate := newBatchEvaluator(opt.Workers, &pr, dirs, trials, trialCost, cost)
	start := time.Now()
	for iter := 0; iter < opt.MaxIterations; iter++ {
		if opt.Deadline > 0 && time.Since(start) > opt.Deadline {
			break
		}
		// Cooperative cancellation, once per generation: the caller's
		// request died or expired, so the remaining budget is wasted work.
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		for i := range pop {
			a, b, c := rng.Intn(opt.PopSize), rng.Intn(opt.PopSize), rng.Intn(opt.PopSize)
			var trial [3]float64
			jrand := rng.Intn(3)
			for d := 0; d < 3; d++ {
				if d == jrand || rng.Float64() < opt.CR {
					trial[d] = pop[a][d] + opt.F*(pop[b][d]-pop[c][d])
				} else {
					trial[d] = pop[i][d]
				}
				trial[d] = mathx.Clamp(trial[d], lov[d], lov[d]+span[d])
			}
			trials[i] = trial
		}
		evaluate()
		evals += opt.PopSize
		for i := range pop {
			// A trial whose evaluation aborted returns a partial sum that is
			// >= cost[i] by construction, so the strict < rejects it exactly
			// as the full sum would have.
			if trialCost[i] < cost[i] {
				pop[i], cost[i] = trials[i], trialCost[i]
			}
		}
		if opt.Tol > 0 && converged(cost, opt.Tol) {
			break
		}
		if opt.MinResidual > 0 {
			bc := cost[0]
			for i := 1; i < opt.PopSize; i++ {
				if cost[i] < bc {
					bc = cost[i]
				}
			}
			if bc <= opt.MinResidual*float64(len(pr.pairs)) {
				break
			}
		}
	}
	best := 0
	for i := 1; i < opt.PopSize; i++ {
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
// below the relative tolerance: std(cost) <= tol*|mean(cost)| — the same
// criterion scipy's differential_evolution uses. Costs hold only fully
// evaluated (never aborted) sums, so the decision depends on true
// objective values and is identical at any worker count.
func converged(cost []float64, tol float64) bool {
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
	return math.Sqrt(s2/float64(len(cost))) <= tol*math.Abs(mean)
}

// intersectBox returns the axis-aligned intersection of [alo, ahi] and
// [blo, bhi], and whether it is non-empty in every dimension.
func intersectBox(alo, ahi, blo, bhi mathx.Vec3) (mathx.Vec3, mathx.Vec3, bool) {
	lo := mathx.Vec3{X: math.Max(alo.X, blo.X), Y: math.Max(alo.Y, blo.Y), Z: math.Max(alo.Z, blo.Z)}
	hi := mathx.Vec3{X: math.Min(ahi.X, bhi.X), Y: math.Min(ahi.Y, bhi.Y), Z: math.Min(ahi.Z, bhi.Z)}
	if lo.X > hi.X || lo.Y > hi.Y || lo.Z > hi.Z {
		return mathx.Vec3{}, mathx.Vec3{}, false
	}
	return lo, hi, true
}

// EstimateYaw recovers the camera heading given its position: for each
// correspondence, the world bearing to the 3D point minus the in-image
// bearing of its pixel gives one yaw estimate; the circular mean is
// returned. Together with Localize's (x, y, z) this provides the
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
