package pose

// Coverage of the Nelder–Mead refiner (refine.go) on its own: where it
// lands from a prior, why it restarts, what it allocates, and how soon it
// notices a canceled context.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"visualprint/internal/mathx"
)

// refineFixture builds the problem LocalizeWarm would over warmScenario(n)
// and returns it with its direction scratch, the venue box and the camera.
func refineFixture(n int) (*problem, []ptDir, mathx.Vec3, mathx.Vec3, mathx.Vec3) {
	corr, intr, lo, hi, cam := warmScenario(n)
	pr, _, err := newSolve(corr, intr)
	if err != nil {
		panic(err)
	}
	return &pr, make([]ptDir, len(pr.pts)), lo, hi, cam
}

// refineMisses runs the refiner from `priors` random priors uniform within
// ±off of the camera on every axis, each in the cold path's box prior ±
// seedRadius, and returns how many ended more than tol from the camera and
// the farthest miss. single runs one simplex without restarts instead.
func refineMisses(t *testing.T, n int, off float64, priors int, tol float64, single bool) (int, float64) {
	t.Helper()
	pr, dirs, lo, hi, cam := refineFixture(n)
	rng := rand.New(rand.NewSource(int64(1000*n) + int64(off*10)))
	misses, worst := 0, 0.0
	for k := 0; k < priors; k++ {
		prior := cam.Add(mathx.Vec3{X: (2*rng.Float64() - 1) * off, Y: (2*rng.Float64() - 1) * off, Z: (2*rng.Float64() - 1) * off})
		b, _ := priorBox(lo, hi, prior, seedRadius)
		x0 := [3]float64{prior.X, prior.Y, prior.Z}
		var v [3]float64
		if single {
			var s simplex
			s.v[0], s.f[0] = x0, pr.objective(x0, dirs, math.Inf(1))
			for d := 0; d < 3; d++ {
				s.v[d+1] = x0
				s.v[d+1][d] += seedRadius / 2
				s.v[d+1] = b.clamp(s.v[d+1])
				s.f[d+1] = pr.objective(s.v[d+1], dirs, math.Inf(1))
			}
			if _, err := pr.nelderMead(context.Background(), &s, b, dirs); err != nil {
				t.Fatal(err)
			}
			v = s.v[0]
		} else {
			var err error
			if v, _, _, err = pr.refine(context.Background(), x0, b, seedRadius/2, dirs); err != nil {
				t.Fatal(err)
			}
		}
		if d := (mathx.Vec3{X: v[0], Y: v[1], Z: v[2]}).Dist(cam); d > tol {
			misses++
			worst = math.Max(worst, d)
		}
	}
	return misses, worst
}

// TestRefineLandsOnCamera: on exact correspondences, from 500 priors within
// ±0.2 m and ±0.4 m of the camera, the refiner ends within 1 mm of it with
// 24 and 60 correspondences. With 8 and 12 the objective can have spurious
// local minima inside the box: those misses are reported and bounded. A
// single simplex's misses are reported too — the reason the refiner
// restarts.
func TestRefineLandsOnCamera(t *testing.T) {
	if testing.Short() {
		t.Skip("4000 refinements")
	}
	for _, n := range []int{24, 60} {
		for _, off := range []float64{0.2, 0.4} {
			if m, worst := refineMisses(t, n, off, 500, 1e-3, false); m > 0 {
				t.Errorf("n=%d, priors within ±%.1f m: %d of 500 ended > 1 mm from the camera (farthest %.3f m)", n, off, m, worst)
			}
		}
	}
	for _, n := range []int{8, 12} {
		m, worst := refineMisses(t, n, 0.4, 500, 1e-2, false)
		t.Logf("n=%d, priors within ±0.4 m: %d of 500 ended > 1 cm from the camera (farthest %.3f m)", n, m, worst)
		if m > 10 {
			t.Errorf("n=%d: %d of 500 misses, want <= 2 %%", n, m)
		}
	}
	for _, n := range []int{24, 60} {
		m, worst := refineMisses(t, n, 0.4, 500, 1e-2, true)
		t.Logf("one simplex without restarts, n=%d, ±0.4 m: %d of 500 ended > 1 cm from the camera (farthest %.3f m)", n, m, worst)
	}
}

// TestRefineZeroAllocs: with the direction scratch built, a refinement
// allocates nothing.
func TestRefineZeroAllocs(t *testing.T) {
	pr, dirs, lo, hi, cam := refineFixture(60)
	b := box{lo: [3]float64{lo.X, lo.Y, lo.Z}, hi: [3]float64{hi.X, hi.Y, hi.Z}}
	x0 := [3]float64{cam.X + 0.2, cam.Y - 0.1, cam.Z + 0.15}
	ctx := context.Background()
	if n := testing.AllocsPerRun(20, func() { pr.refine(ctx, x0, b, 0.25, dirs) }); n != 0 {
		t.Fatalf("refine allocates %v times, want 0", n)
	}
}

// cancelAfter is a context whose Err reports cancellation from its
// (after+1)-th call on.
type cancelAfter struct {
	context.Context
	calls, after int
}

func (c *cancelAfter) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestRefineChecksContextEveryIteration: a context canceled after k checks
// stops the refiner within k iterations — at most the four evaluations of
// the starting simplex plus five (reflection, contraction, three shrunk
// vertices) per iteration — and the error is returned.
func TestRefineChecksContextEveryIteration(t *testing.T) {
	pr, dirs, lo, hi, cam := refineFixture(24)
	b := box{lo: [3]float64{lo.X, lo.Y, lo.Z}, hi: [3]float64{hi.X, hi.Y, hi.Z}}
	x0 := [3]float64{cam.X + 0.3, cam.Y + 0.2, cam.Z - 0.3}
	_, _, full, err := pr.refine(context.Background(), x0, b, 0.25, dirs)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 5, 20} {
		ctx := &cancelAfter{Context: context.Background(), after: k}
		_, _, evals, err := pr.refine(ctx, x0, b, 0.25, dirs)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled after %d checks: err %v", k, err)
		}
		if evals > 4+5*k || evals >= full {
			t.Fatalf("canceled after %d checks: %d evaluations (uncanceled %d), want <= %d", k, evals, full, 4+5*k)
		}
	}
}
