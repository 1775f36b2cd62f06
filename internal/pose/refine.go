package pose

// The local refiner of the two solves that start from a prior: a bounded
// Nelder–Mead simplex over the camera position. A prior that P3P or a
// session's motion model has placed within centimetres of the answer needs
// a polish, not a second global search; the venue-wide DE (search, in
// pose.go) stays the paper's cold solve and the fallback.

import (
	"context"
	"math"

	"visualprint/internal/mathx"
)

const (
	// refineStop is the simplex size in metres (the largest per-axis
	// distance of a vertex from the best one) at which one simplex ends.
	refineStop = 5e-4
	// refineRestart scales the starting step of each restart, which also
	// flips its sign. The objective is a sum of truncated absolute values:
	// a simplex can stall in one of its narrow kinked valleys short of the
	// minimum, and a fresh, smaller simplex around the best vertex, spanned
	// along the opposite axes from the last one, gets it moving again.
	refineRestart = 0.25
	// refineMaxIters bounds the iterations of one simplex, so one that
	// collapsed without shrinking still ends.
	refineMaxIters = 300
)

// Nelder–Mead coefficients in the form c + t·(w − c), c the centroid of
// the three best vertices and w the worst: reflection, expansion, outside
// and inside contraction. A shrink halves every edge towards the best.
const (
	nmReflect  = -1
	nmExpand   = -2
	nmOutside  = -0.5
	nmInside   = 0.5
	nmShrink   = 0.5
	simplexLen = 4 // a simplex in three dimensions
)

// box is an axis-aligned search box as arrays, the refiner's working form.
type box struct{ lo, hi [3]float64 }

// priorBox is the cube prior ± radius intersected with [lo, hi], and
// whether that is non-empty (and free of NaN) in every dimension.
func priorBox(lo, hi, prior mathx.Vec3, radius float64) (box, bool) {
	l, h, c := [3]float64{lo.X, lo.Y, lo.Z}, [3]float64{hi.X, hi.Y, hi.Z}, [3]float64{prior.X, prior.Y, prior.Z}
	var b box
	for d := range c {
		b.lo[d], b.hi[d] = math.Max(l[d], c[d]-radius), math.Min(h[d], c[d]+radius)
		if !(b.lo[d] <= b.hi[d]) {
			return box{}, false
		}
	}
	return b, true
}

func (b *box) clamp(v [3]float64) [3]float64 {
	for d := range v {
		v[d] = math.Min(math.Max(v[d], b.lo[d]), b.hi[d])
	}
	return v
}

// simplex is a Nelder–Mead simplex with its vertices' costs; order keeps
// the vertices sorted by cost, best first.
type simplex struct {
	v [simplexLen][3]float64
	f [simplexLen]float64
}

// order sorts the vertices by cost with an insertion sort: ties keep their
// current order, so the walk is deterministic.
func (s *simplex) order() {
	for i := 1; i < simplexLen; i++ {
		for j := i; j > 0 && s.f[j] < s.f[j-1]; j-- {
			s.v[j], s.v[j-1] = s.v[j-1], s.v[j]
			s.f[j], s.f[j-1] = s.f[j-1], s.f[j]
		}
	}
}

// size is the largest per-axis distance of a vertex from the best one.
func (s *simplex) size() float64 {
	m := 0.0
	for i := 1; i < simplexLen; i++ {
		for d := range s.v[i] {
			m = math.Max(m, math.Abs(s.v[i][d]-s.v[0][d]))
		}
	}
	return m
}

// refine polishes x0 inside b: a simplex of x0 and x0 + step along each
// axis (clamped to b; an axis clamped back onto x0 steps the other way)
// runs until it is smaller than refineStop, then restarts from its best
// vertex with the step times -refineRestart for as long as a restart lowers
// the cost. It returns the best vertex, its full cost, and the number of
// objective evaluations, aborted ones included. The context is checked
// every iteration; dirs is the direction scratch, len(pr.pts) long, and
// nothing else is allocated. The refiner draws no randomness and evaluates
// serially, so its answer does not depend on GOMAXPROCS.
func (pr *problem) refine(ctx context.Context, x0 [3]float64, b box, step float64, dirs []ptDir) ([3]float64, float64, int, error) {
	x := b.clamp(x0)
	fx := pr.objective(x, dirs, math.Inf(1))
	evals := 1
	for {
		var s simplex
		s.v[0], s.f[0] = x, fx
		for d := 0; d < 3; d++ {
			v := x
			v[d] = math.Min(math.Max(x[d]+step, b.lo[d]), b.hi[d])
			if v[d] == x[d] {
				v[d] = math.Min(math.Max(x[d]-step, b.lo[d]), b.hi[d])
			}
			s.v[d+1], s.f[d+1] = v, pr.objective(v, dirs, math.Inf(1))
		}
		evals += 3
		n, err := pr.nelderMead(ctx, &s, b, dirs)
		evals += n
		if err != nil {
			return x, fx, evals, err
		}
		if !(s.f[0] < fx) {
			return x, fx, evals, nil
		}
		x, fx = s.v[0], s.f[0]
		step *= -refineRestart
	}
}

// nelderMead runs one simplex to refineStop or refineMaxIters and returns
// the evaluations it spent; on return s is ordered, best first. Trial
// points are clamped to b. A trial is evaluated with the cost it must beat
// as the early-abort limit and accepted only strictly below it, so an
// aborted evaluation makes the same decision as a full one and every
// stored cost is a full sum.
func (pr *problem) nelderMead(ctx context.Context, s *simplex, b box, dirs []ptDir) (int, error) {
	evals := 0
	for it := 0; it < refineMaxIters; it++ {
		if err := ctx.Err(); err != nil {
			return evals, err
		}
		s.order()
		if s.size() < refineStop {
			break
		}
		var c [3]float64
		for d := range c {
			c[d] = (s.v[0][d] + s.v[1][d] + s.v[2][d]) / 3
		}
		w, fw := s.v[simplexLen-1], s.f[simplexLen-1]
		at := func(t float64) [3]float64 {
			var p [3]float64
			for d := range p {
				p[d] = c[d] + t*(w[d]-c[d])
			}
			return b.clamp(p)
		}
		xr := at(nmReflect)
		fr := pr.objective(xr, dirs, fw)
		evals++
		switch {
		case fr < s.f[0]:
			xe := at(nmExpand)
			fe := pr.objective(xe, dirs, fr)
			evals++
			if fe < fr {
				xr, fr = xe, fe
			}
			s.v[simplexLen-1], s.f[simplexLen-1] = xr, fr
		case fr < s.f[simplexLen-2]:
			s.v[simplexLen-1], s.f[simplexLen-1] = xr, fr
		default:
			// Outside the worst vertex's cost the reflection is beaten by
			// nothing already held; contract towards whichever of the two
			// is better, and shrink when that fails too.
			xc, limit := at(nmInside), fw
			if fr < fw {
				xc, limit = at(nmOutside), fr
			}
			if fc := pr.objective(xc, dirs, limit); fc < limit {
				s.v[simplexLen-1], s.f[simplexLen-1] = xc, fc
				evals++
				continue
			}
			evals++
			for i := 1; i < simplexLen; i++ {
				for d := range s.v[i] {
					s.v[i][d] = s.v[0][d] + nmShrink*(s.v[i][d]-s.v[0][d])
				}
				s.f[i] = pr.objective(s.v[i], dirs, math.Inf(1))
			}
			evals += simplexLen - 1
		}
	}
	s.order()
	return evals, nil
}
