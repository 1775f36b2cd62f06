package pose

// The two solves that start from a prior (see DESIGN.md "Performance" and
// "Continuous localization"). A venue-wide DE search spends most of its
// generations finding the basin the answer lies in; a prior position skips
// that. LocalizeCold finds its own: three correspondences fix the camera
// center up to a small finite set in closed form, so it draws
// correspondence triples, solves each with Grunert's three-point
// perspective (P3P) quartic, ranks the resulting centers RANSAC-style on
// the solve's own objective, and polishes the best one with the local
// refiner (refine.go). A refined answer that the shrunk box may have
// stopped short of the true minimum is re-solved by the venue-wide search
// over the same problem, bit for bit the solve LocalizeContext runs.
// LocalizeWarm refines a tracking session's motion-model prediction instead
// and gates the answer on the session's recent residuals; its caller
// re-solves a rejected one cold.

import (
	"context"
	"math"
	"runtime"

	"visualprint/internal/mathx"
)

const (
	// seedTriples is how many correspondence triples a cold solve draws;
	// each yields up to four P3P camera centers.
	seedTriples = 64
	// seedScorePairs is the size of the pair subset that ranks the
	// hypotheses: enough to separate the true center from a wrong one by
	// tens of outlier-capped residuals, a fifth of a full evaluation.
	seedScorePairs = 64
	// seedTop is how many of the best-ranked hypotheses are evaluated in
	// full, over the solve's whole pair list, to pick the prior.
	seedTop = 4
	// seedRadius is the half-width in metres of the shrunk search box
	// around the prior: wider than the spread of good hypotheses under a
	// pixel of noise, a fraction of a venue.
	seedRadius = 0.5
	// seedGateMargin is the distance in metres from a face of the shrunk
	// box, where that face lies inside the venue box, at which a seeded
	// answer counts as pinned against the box and the venue-wide search
	// re-solves.
	seedGateMargin = 0.01
	// seedStream is folded into solveSeed to seed the triple draw, a
	// stream of its own: the DE's RNG sees exactly the draws it would see
	// without a prior.
	seedStream = 0x5eedc01d5eedc01d
	// rootIters caps the safeguarded Newton steps that polish one
	// isolated polynomial root.
	rootIters = 64
)

// The warm-solve gate of LocalizeWarm, max(warmGateFloor,
// best·warmGateFactor) with best the session's best retained residual (mean
// radians per pair): a warm answer above it is rejected. The achievable
// residual is a property of the corpus (descriptor mismatch noise), not of
// the solver, so the session's recent fixes are the yardstick; anchoring on
// the window minimum rather than the last fix keeps the gate from
// ratcheting looser frame over frame. The floor covers near-perfect corpora
// whose residuals are ~0.
const (
	warmGateFloor  = 0.02
	warmGateFactor = 1.5
)

// LocalizeCold is the cold solve: the same answer space as LocalizeContext,
// reached from closed-form hypotheses instead of the whole box. It draws
// seedTriples correspondence triples with an RNG separate from the DE's,
// solves each by P3P, drops centers outside [lo, hi], ranks the rest on a
// seedScorePairs-pair subset of the solve's pairs and evaluates the best
// seedTop in full. The best becomes the prior of the Nelder–Mead refiner
// (refine.go) inside the box prior ± seedRadius, over the same pairs.
//
// The gate: when the refined answer lies within seedGateMargin of a face of
// the shrunk box that is inside [lo, hi], the minimum may lie beyond that
// face, and the venue-wide search re-solves the problem already built, from
// the stream newProblem left — LocalizeContext with opt, bit for bit, as is
// a solve that found no hypothesis. Result.Evals counts every objective
// evaluation: the hypotheses scored, the refiner's and any fallback's. The
// result is identical at any GOMAXPROCS.
func LocalizeCold(ctx context.Context, corr []Correspondence, intr Intrinsics, lo, hi mathx.Vec3, opt Options) (Result, error) {
	pr, rng, err := newSolve(corr, intr)
	if err != nil {
		return Result{}, err
	}
	s := newSeeder(&pr, corr, lo, hi)
	prior, evals, ok := s.best()
	if ok {
		// prior lies in [lo, hi], so its box is never empty.
		res, _, err := pr.refinePrior(ctx, corr, intr, lo, hi, prior, seedRadius, s.dirs)
		if err != nil {
			return Result{}, err
		}
		evals += res.Evals
		if !pinnedToPrior(res.Position, prior, lo, hi) {
			res.Evals = evals
			return res, nil
		}
	}
	res, err := pr.search(ctx, rng, corr, intr, lo, hi, opt.Deadline, runtime.GOMAXPROCS(0), deMaxIterations)
	if err != nil {
		return Result{}, err
	}
	res.Evals += evals
	return res, nil
}

// LocalizeWarm is the warm solve of a tracking session: the Nelder–Mead
// refiner started from the prior inside the cube prior ± radius intersected
// with [lo, hi]. best is the session's best retained residual. The bool
// reports whether the answer passed the gate, a residual of at most
// max(warmGateFloor, best·warmGateFactor); the caller re-solves a rejected
// one cold. A prior box that misses [lo, hi] is rejected unsolved, with a
// zero Result.
func LocalizeWarm(ctx context.Context, corr []Correspondence, intr Intrinsics, lo, hi, prior mathx.Vec3, radius, best float64) (Result, bool, error) {
	pr, _, err := newSolve(corr, intr)
	if err != nil {
		return Result{}, false, err
	}
	res, ok, err := pr.refinePrior(ctx, corr, intr, lo, hi, prior, radius, make([]ptDir, len(pr.pts)))
	if err != nil || !ok {
		return Result{}, false, err
	}
	return res, res.Residual <= math.Max(warmGateFloor, best*warmGateFactor), nil
}

// refinePrior runs refine from prior inside the cube prior ± radius
// intersected with [lo, hi], with a starting step of radius/2, and reports
// false, unsolved, when that intersection is empty.
func (pr *problem) refinePrior(ctx context.Context, corr []Correspondence, intr Intrinsics, lo, hi, prior mathx.Vec3, radius float64, dirs []ptDir) (Result, bool, error) {
	b, ok := priorBox(lo, hi, prior, radius)
	if !ok {
		return Result{}, false, nil
	}
	v, cost, evals, err := pr.refine(ctx, [3]float64{prior.X, prior.Y, prior.Z}, b, radius/2, dirs)
	if err != nil {
		return Result{}, false, err
	}
	pos := mathx.Vec3{X: v[0], Y: v[1], Z: v[2]}
	return Result{
		Position: pos,
		Residual: cost / float64(len(pr.pairs)),
		Evals:    evals,
		Yaw:      EstimateYaw(corr, intr, pos),
	}, true, nil
}

// pinnedToPrior reports whether pos lies within seedGateMargin of a face of
// the shrunk box prior ± seedRadius that is inside the venue box [lo, hi]:
// there the seeded search's box, not the venue, may have stopped it. A face
// the shrunk box shares with the venue box bounds the venue-wide search too.
func pinnedToPrior(pos, prior, lo, hi mathx.Vec3) bool {
	p := [3]float64{pos.X, pos.Y, pos.Z}
	c := [3]float64{prior.X, prior.Y, prior.Z}
	l := [3]float64{lo.X, lo.Y, lo.Z}
	h := [3]float64{hi.X, hi.Y, hi.Z}
	for d := range p {
		if f := c[d] - seedRadius; f > l[d] && p[d]-f < seedGateMargin {
			return true
		}
		if f := c[d] + seedRadius; f < h[d] && f-p[d] < seedGateMargin {
			return true
		}
	}
	return false
}

// seeder ranks the closed-form hypotheses of one cold solve. newSeeder
// builds everything the stage touches, so best allocates nothing.
type seeder struct {
	pr   *problem
	corr []Correspondence
	// sub is the ranking subset of pr's pairs with its own compact point
	// list. When newProblem kept fewer than all pairs, they are a seeded
	// shuffle and any prefix is a uniform sample; otherwise they are in
	// (i, j) order, so a prefix would only see the first points and the
	// subset is strided instead.
	sub    problem
	dirs   []ptDir // direction scratch, len(pr.pts) >= len(sub.pts)
	lo, hi mathx.Vec3
	seed   uint64
}

func newSeeder(pr *problem, corr []Correspondence, lo, hi mathx.Vec3) *seeder {
	s := &seeder{pr: pr, corr: corr, dirs: make([]ptDir, len(pr.pts)), lo: lo, hi: hi, seed: solveSeed ^ seedStream}
	m := len(pr.pairs)
	k := min(seedScorePairs, m)
	n := len(corr)
	shuffled := m < n*(n-1)/2
	s.sub.pairs = make([]pairGeometry, k)
	s.sub.pts = make([]mathx.Vec3, 0, min(2*k, len(pr.pts)))
	compact := make([]int32, len(pr.pts)) // pr.pts index -> sub.pts index + 1
	ref := func(i int32) int32 {
		if compact[i] == 0 {
			s.sub.pts = append(s.sub.pts, pr.pts[i])
			compact[i] = int32(len(s.sub.pts))
		}
		return compact[i] - 1
	}
	for t := range s.sub.pairs {
		src := t
		if !shuffled {
			src = t * m / k
		}
		pg := pr.pairs[src]
		pg.ia, pg.ib = ref(pg.ia), ref(pg.ib)
		s.sub.pairs[t] = pg
	}
	return s
}

// best draws seedTriples triples, ranks every in-box P3P center on the
// subset and returns the one of the seedTop best with the lowest full
// objective, the number of objective evaluations spent, and false when no
// triple produced an in-box center.
func (s *seeder) best() (mathx.Vec3, int, bool) {
	type ranked struct {
		v    [3]float64
		cost float64
	}
	var top [seedTop]ranked
	ntop, evals := 0, 0
	limit := math.Inf(1)
	rng := splitMix(s.seed)
	n := len(s.corr)
	for t := 0; t < seedTriples; t++ {
		i, j, k := rng.triple(n)
		pts := [3]mathx.Vec3{s.corr[i].P, s.corr[j].P, s.corr[k].P}
		rays := [3]mathx.Vec3{s.pr.rays[i], s.pr.rays[j], s.pr.rays[k]}
		var centers [4]mathx.Vec3
		nc := p3p(&pts, &rays, &centers)
		for _, c := range centers[:nc] {
			if c.X < s.lo.X || c.Y < s.lo.Y || c.Z < s.lo.Z || c.X > s.hi.X || c.Y > s.hi.Y || c.Z > s.hi.Z {
				continue
			}
			v := [3]float64{c.X, c.Y, c.Z}
			cost := s.sub.objective(v, s.dirs, limit)
			evals++
			if cost >= limit {
				continue
			}
			// Insert in cost order; a tie keeps the earlier hypothesis.
			at := min(ntop, seedTop-1)
			for at > 0 && cost < top[at-1].cost {
				top[at] = top[at-1]
				at--
			}
			top[at] = ranked{v, cost}
			if ntop < seedTop {
				ntop++
			}
			if ntop == seedTop {
				limit = top[seedTop-1].cost
			}
		}
	}
	if ntop == 0 {
		return mathx.Vec3{}, evals, false
	}
	best, bestCost := 0, math.Inf(1)
	for h := range top[:ntop] {
		cost := s.pr.objective(top[h].v, s.dirs, bestCost)
		evals++
		if cost < bestCost {
			best, bestCost = h, cost
		}
	}
	v := top[best].v
	return mathx.Vec3{X: v[0], Y: v[1], Z: v[2]}, evals, true
}

// splitMix is the SplitMix64 generator: the hypothesis stage's own stream,
// a word of state, nothing to allocate.
type splitMix uint64

func (s *splitMix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitMix) intn(n int) int { return int(s.next() % uint64(n)) }

// triple draws three distinct indices below n (n >= 3).
func (s *splitMix) triple(n int) (int, int, int) {
	i := s.intn(n)
	j := s.intn(n - 1)
	if j >= i {
		j++
	}
	k := s.intn(n - 2)
	for _, x := range [2]int{min(i, j), max(i, j)} {
		if k >= x {
			k++
		}
	}
	return i, j, k
}

// Degeneracy thresholds of p3p: the squared sine of the angle spanned at
// p[0] below which the points count as collinear, and the ray cosine above
// which two rays count as coincident (about 1.4e-6 rad apart).
const (
	p3pCollinear  = 1e-12
	p3pCoincident = 1 - 1e-12
)

// p3p writes to out the camera centers from which the world points p are
// seen along the camera-frame unit rays r, and returns how many. It is
// Grunert's solution: with depths s1, s2 = u·s1, s3 = v·s1 along the rays,
// the law of cosines on the three sides gives u as a rational function of v
// and a quartic in v, whose coefficients are built here by polynomial
// products rather than transcribed. Each positive root gives the depths,
// and trilateration from the depths gives two centers mirrored through the
// points' plane. Only the one whose tetrahedron (center to p[0], p[1], p[2])
// has the camera frame's orientation is kept: a rotation preserves it and a
// mirror flips it, so neither pitch nor roll is needed. Coincident or
// collinear points and coincident rays yield nothing.
func p3p(p *[3]mathx.Vec3, r *[3]mathx.Vec3, out *[4]mathx.Vec3) int {
	e12, e13 := p[1].Sub(p[0]), p[2].Sub(p[0])
	a2 := p[2].Sub(p[1]).Dot(p[2].Sub(p[1]))
	b2 := e13.Dot(e13)
	c2 := e12.Dot(e12)
	nrm := e12.Cross(e13)
	if !(nrm.Dot(nrm) > p3pCollinear*b2*c2) || !(a2 > 0) {
		return 0 // collinear or coincident points (NaN lands here too)
	}
	ca, cb, cg := r[1].Dot(r[2]), r[0].Dot(r[2]), r[0].Dot(r[1])
	if !(ca < p3pCoincident && cb < p3pCoincident && cg < p3pCoincident) {
		return 0
	}
	// u = N(v)/D(v) from eliminating s1 between the b and c sides and the
	// a and b sides; the c side times D(v)^2 is then the quartic
	// N^2 - 2·cg·N·D + D^2·M = 0 (coefficients ascending in v).
	K, C := (a2-c2)/b2, c2/b2
	N := [3]float64{1 + K, -2 * K * cb, K - 1}
	D := [2]float64{2 * cg, -2 * ca}
	M := [3]float64{1 - C, 2 * C * cb, -C}
	var q [5]float64
	for i, ni := range N {
		for j, nj := range N {
			q[i+j] += ni * nj
		}
		for j, dj := range D {
			q[i+j] -= 2 * cg * ni * dj
		}
	}
	for i, di := range D {
		for j, dj := range D {
			for k, mk := range M {
				q[i+j+k] += di * dj * mk
			}
		}
	}
	var roots [4]float64
	nr := realRoots(q, 4, &roots)

	// Trilateration frame: ex along p0->p1, ey in the points' plane, ez
	// their normal. The world tetrahedron's orientation is -sign(z) along
	// ez; the camera's is sign(det[r0 r1 r2]), the depths being positive.
	d := math.Sqrt(c2)
	ex := e12.Scale(1 / d)
	ix := ex.Dot(e13)
	eyv := e13.Sub(ex.Scale(ix))
	jy := eyv.Norm()
	ey := eyv.Scale(1 / jy)
	ez := ex.Cross(ey)
	flip := r[0].Dot(r[1].Cross(r[2])) > 0
	n := 0
	for _, v := range roots[:nr] {
		if !(v > 0) {
			continue
		}
		den := 1 + v*v - 2*v*cb
		dv := D[0] + D[1]*v
		if !(den > 0) || dv == 0 {
			continue
		}
		u := (N[0] + N[1]*v + N[2]*v*v) / dv
		if !(u > 0) {
			continue
		}
		s1sq := b2 / den
		s2sq, s3sq := u*u*s1sq, v*v*s1sq
		x := (s1sq - s2sq + c2) / (2 * d)
		y := (s1sq-s3sq+ix*ix+jy*jy)/(2*jy) - ix*x/jy
		z2 := s1sq - x*x - y*y
		if z2 < 0 {
			if z2 < -1e-6*s1sq {
				continue // depths inconsistent with the triangle: a spurious root
			}
			z2 = 0
		}
		z := math.Sqrt(z2)
		if flip {
			z = -z
		}
		c := p[0].Add(ex.Scale(x)).Add(ey.Scale(y)).Add(ez.Scale(z))
		if sum := c.X + c.Y + c.Z; math.IsNaN(sum) || math.IsInf(sum, 0) {
			continue // NaN would slip through the caller's box test
		}
		out[n] = c
		n++
	}
	return n
}

// realRoots writes the real roots of c[0] + c[1]x + ... + c[deg]x^deg
// (deg <= 4) to out in ascending order and returns how many. Below degree 3
// it is closed form. Above, the roots of the derivative — this function one
// degree down — and the Cauchy bound split the line into intervals on which
// the polynomial is monotone; each interval whose ends differ in sign holds
// one root, polished by at most rootIters Newton steps kept inside the
// bracket by bisection. A root of even multiplicity is found only where a
// critical point evaluates to exactly zero. Nothing is allocated.
func realRoots(c [5]float64, deg int, out *[4]float64) int {
	for deg > 0 && c[deg] == 0 {
		deg--
	}
	switch deg {
	case 0:
		return 0
	case 1:
		out[0] = -c[0] / c[1]
		return 1
	case 2:
		a, b, c0 := c[2], c[1], c[0]
		disc := b*b - 4*a*c0
		if disc < 0 {
			return 0
		}
		if disc == 0 {
			out[0] = -b / (2 * a)
			return 1
		}
		// The stable form: b and the root get the same sign, so their sum
		// never cancels, and q != 0 once disc > 0.
		q := -0.5 * (b + math.Copysign(math.Sqrt(disc), b))
		x1, x2 := q/a, c0/q
		out[0], out[1] = min(x1, x2), max(x1, x2)
		return 2
	}
	var dc [5]float64
	for i := 1; i <= deg; i++ {
		dc[i-1] = float64(i) * c[i]
	}
	var crit [4]float64
	ncrit := realRoots(dc, deg-1, &crit)
	bound := 0.0
	for i := 0; i < deg; i++ {
		bound = max(bound, math.Abs(c[i]/c[deg]))
	}
	bound++
	if math.IsInf(bound, 0) || math.IsNaN(bound) {
		return 0
	}
	var edges [6]float64
	edges[0] = -bound
	for i, x := range crit[:ncrit] {
		edges[i+1] = mathx.Clamp(x, -bound, bound)
	}
	edges[ncrit+1] = bound
	n := 0
	fa := polyEval(c, deg, edges[0])
	for e := 1; e <= ncrit+1; e++ {
		a, b := edges[e-1], edges[e]
		fb := polyEval(c, deg, b)
		switch {
		case fb == 0:
			out[n] = b
			n++
		case fa != 0 && (fa < 0) != (fb < 0):
			out[n] = polishRoot(c, deg, a, b, fa)
			n++
		}
		fa = fb
	}
	return n
}

// polishRoot finds the root of the polynomial in the bracket [a, b] (fa =
// its value at a, of the opposite sign to its value at b).
func polishRoot(c [5]float64, deg int, a, b, fa float64) float64 {
	x := 0.5 * (a + b)
	for it := 0; it < rootIters; it++ {
		f, df := polyEvalD(c, deg, x)
		if f == 0 {
			return x
		}
		if (f < 0) == (fa < 0) {
			a = x
		} else {
			b = x
		}
		nx := x - f/df
		if !(nx > a && nx < b) {
			nx = 0.5 * (a + b) // Newton left the bracket (or df was 0)
		}
		if math.Abs(nx-x) <= 1e-15*math.Max(1, math.Abs(x)) {
			return nx
		}
		x = nx
	}
	return x
}

// polyEval evaluates c[0] + ... + c[deg]x^deg by Horner's rule.
func polyEval(c [5]float64, deg int, x float64) float64 {
	f := c[deg]
	for i := deg - 1; i >= 0; i-- {
		f = f*x + c[i]
	}
	return f
}

// polyEvalD evaluates the polynomial and its derivative at x.
func polyEvalD(c [5]float64, deg int, x float64) (f, df float64) {
	f = c[deg]
	for i := deg - 1; i >= 0; i-- {
		df = df*x + f
		f = f*x + c[i]
	}
	return f, df
}
