package pose

// Warm-start coverage through LocalizeWarm: a disjoint prior is rejected
// unsolved, and a good prior must converge in a fraction of the cold
// evaluations with no accuracy loss and pass the gate.

import (
	"context"
	"math"
	"testing"

	"visualprint/internal/mathx"
)

// TestLocalizeDisjointPriorIgnored: a prior box that does not intersect the
// search box gives the refiner nowhere to start, so the warm solve rejects
// it unsolved — zero evaluations — and the caller's cold re-solve is the
// only answer.
func TestLocalizeDisjointPriorIgnored(t *testing.T) {
	corr, intr, lo, hi := identityScenario(5, 16)
	got, accepted, err := LocalizeWarm(context.Background(), corr, intr, lo, hi, mathx.Vec3{X: 1e6, Y: 1e6, Z: 1e6}, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if accepted || got != (Result{}) {
		t.Fatalf("disjoint prior was solved: %+v (accepted %v)", got, accepted)
	}
}

// warmScenario builds a geometrically consistent correspondence set: 3D
// points in a wall-like slab, pixels their true pinhole projections from a
// known camera — the same shape as the bench workload, so the objective has
// a near-zero optimum and the deTol convergence stop is meaningful.
func warmScenario(n int) ([]Correspondence, Intrinsics, mathx.Vec3, mathx.Vec3, mathx.Vec3) {
	intr := Intrinsics{W: 200, H: 150, FovX: 1.1, FovY: 0.85}
	cam := mathx.Vec3{X: 4, Y: 1.4, Z: 2}
	cx, cy := float64(intr.W)/2, float64(intr.H)/2
	focal := cx / math.Tan(intr.FovX/2)
	corr := make([]Correspondence, n)
	for i := range corr {
		fi := float64(i)
		p := mathx.Vec3{
			X: 1.5 + 5*math.Mod(fi*0.61803398875, 1),
			Y: 0.8 + 1.4*math.Mod(fi*0.3819660113, 1),
			Z: 7.1 + 0.8*math.Mod(fi*0.2360679775, 1),
		}
		d := p.Sub(cam)
		corr[i] = Correspondence{
			Px: cx + focal*d.X/d.Z,
			Py: cy - focal*d.Y/d.Z,
			P:  p,
		}
	}
	return corr, intr, mathx.Vec3{X: -1, Y: 0, Z: -1}, mathx.Vec3{X: 9, Y: 3.5, Z: 9}, cam
}

// TestLocalizeWarmConvergesFaster: with a prior near the true camera, the
// warm solve must pass its gate and reach an equal-or-better answer in at
// most half the cold solve's generations (Evals counts dePopSize per
// generation).
func TestLocalizeWarmConvergesFaster(t *testing.T) {
	corr, intr, lo, hi, cam := warmScenario(24)
	cold, err := LocalizeContext(context.Background(), corr, intr, lo, hi, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prior := mathx.Vec3{X: cam.X + 0.2, Y: cam.Y - 0.1, Z: cam.Z + 0.25}
	warm, accepted, err := LocalizeWarm(context.Background(), corr, intr, lo, hi, prior, 0.75, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !accepted {
		t.Fatalf("warm answer (residual %v) failed the gate", warm.Residual)
	}
	if warm.Evals*2 > cold.Evals {
		t.Fatalf("warm solve used %d evals, cold %d (want <= 50%%)", warm.Evals, cold.Evals)
	}
	coldErr := cold.Position.Sub(cam)
	warmErr := warm.Position.Sub(cam)
	ce, we := math.Sqrt(coldErr.Dot(coldErr)), math.Sqrt(warmErr.Dot(warmErr))
	if we > ce+0.05 {
		t.Fatalf("warm solve error %.3f m worse than cold %.3f m", we, ce)
	}
	if we > 0.5 {
		t.Fatalf("warm solve landed %.3f m from the true camera", we)
	}
}
