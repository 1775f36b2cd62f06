package pose

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"visualprint/internal/mathx"
	"visualprint/internal/scene"
)

// synthCorrespondences projects random world points through a real camera
// to produce exact 2D-3D correspondences.
func synthCorrespondences(t *testing.T, cam scene.Camera, rng *rand.Rand, n int, noisePx float64) []Correspondence {
	t.Helper()
	var corr []Correspondence
	for len(corr) < n {
		// Points in front of the camera, spread across the view.
		p := cam.Pos.Add(cam.Forward().Scale(3 + rng.Float64()*8)).Add(mathx.Vec3{
			X: rng.NormFloat64() * 2,
			Y: rng.NormFloat64() * 1,
			Z: rng.NormFloat64() * 2,
		})
		px, py, ok := cam.Project(p)
		if !ok {
			continue
		}
		corr = append(corr, Correspondence{
			Px: px + rng.NormFloat64()*noisePx,
			Py: py + rng.NormFloat64()*noisePx,
			P:  p,
		})
	}
	return corr
}

func testIntrinsics(cam scene.Camera) Intrinsics {
	return Intrinsics{W: cam.W, H: cam.H, FovX: cam.FovX, FovY: cam.FovY()}
}

// localizeLong is the venue-wide search with a larger budget than the
// serving one: 250 generations within 2 s.
func localizeLong(corr []Correspondence, intr Intrinsics, lo, hi mathx.Vec3) (Result, error) {
	return searchSolve(corr, intr, lo, hi, solveSeed, 2*time.Second, runtime.GOMAXPROCS(0), 250)
}

func TestGammaSignsAndMagnitude(t *testing.T) {
	// Center pixel: zero angle; edge pixel: half the FOV.
	fov := 60 * math.Pi / 180
	if g := gamma(50, 50, fov, 100); g != 0 {
		t.Errorf("center gamma = %v", g)
	}
	if g := gamma(100, 50, fov, 100); math.Abs(g-fov/2) > 1e-9 {
		t.Errorf("edge gamma = %v, want %v", g, fov/2)
	}
	if g := gamma(0, 50, fov, 100); math.Abs(g+fov/2) > 1e-9 {
		t.Errorf("left edge gamma = %v, want %v", g, -fov/2)
	}
}

func TestLocalizeExactCorrespondences(t *testing.T) {
	cam := scene.DefaultCamera(320, 240)
	cam.Pos = mathx.Vec3{X: 12, Y: 1.6, Z: 5}
	cam.Yaw = 0.8
	rng := rand.New(rand.NewSource(1))
	corr := synthCorrespondences(t, cam, rng, 20, 0)
	res, err := localizeLong(corr, testIntrinsics(cam),
		mathx.Vec3{X: 0, Y: 0, Z: 0}, mathx.Vec3{X: 50, Y: 3, Z: 20})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Position.Dist(cam.Pos); d > 0.5 {
		t.Errorf("position error %.2f m (got %v, want %v)", d, res.Position, cam.Pos)
	}
	if res.Evals == 0 {
		t.Error("no objective evaluations recorded")
	}
}

func TestLocalizeNoisyCorrespondences(t *testing.T) {
	cam := scene.DefaultCamera(320, 240)
	cam.Pos = mathx.Vec3{X: 30, Y: 1.4, Z: 12}
	cam.Yaw = -2.1
	rng := rand.New(rand.NewSource(2))
	corr := synthCorrespondences(t, cam, rng, 30, 1.0) // 1px pixel noise
	res, err := localizeLong(corr, testIntrinsics(cam),
		mathx.Vec3{}, mathx.Vec3{X: 50, Y: 3, Z: 20})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Position.Dist(cam.Pos); d > 1.5 {
		t.Errorf("noisy position error %.2f m", d)
	}
}

func TestLocalizeYawEstimate(t *testing.T) {
	cam := scene.DefaultCamera(320, 240)
	cam.Pos = mathx.Vec3{X: 10, Y: 1.6, Z: 8}
	cam.Yaw = 1.1
	rng := rand.New(rand.NewSource(3))
	corr := synthCorrespondences(t, cam, rng, 25, 0)
	res, err := localizeLong(corr, testIntrinsics(cam),
		mathx.Vec3{}, mathx.Vec3{X: 40, Y: 3, Z: 20})
	if err != nil {
		t.Fatal(err)
	}
	dyaw := math.Abs(math.Mod(res.Yaw-cam.Yaw+3*math.Pi, 2*math.Pi) - math.Pi)
	if dyaw > 0.2 {
		t.Errorf("yaw error %.3f rad (got %.2f, want %.2f)", dyaw, res.Yaw, cam.Yaw)
	}
}

func TestLocalizeValidation(t *testing.T) {
	intr := Intrinsics{W: 100, H: 100, FovX: 1, FovY: 1}
	ctx := context.Background()
	if _, err := LocalizeContext(ctx, make([]Correspondence, 2), intr, mathx.Vec3{}, mathx.Vec3{X: 1, Y: 1, Z: 1}, DefaultOptions()); err == nil {
		t.Error("2 correspondences accepted")
	}
	corr := make([]Correspondence, 5)
	if _, err := LocalizeContext(ctx, corr, Intrinsics{}, mathx.Vec3{}, mathx.Vec3{X: 1, Y: 1, Z: 1}, DefaultOptions()); err == nil {
		t.Error("zero intrinsics accepted")
	}
}

func TestLocalizeRespectsDeadline(t *testing.T) {
	cam := scene.DefaultCamera(320, 240)
	cam.Pos = mathx.Vec3{X: 5, Y: 1.5, Z: 5}
	rng := rand.New(rand.NewSource(4))
	corr := synthCorrespondences(t, cam, rng, 40, 0)
	start := time.Now()
	if _, err := searchSolve(corr, testIntrinsics(cam), mathx.Vec3{}, mathx.Vec3{X: 20, Y: 3, Z: 20}, solveSeed, 10*time.Millisecond, runtime.GOMAXPROCS(0), 1_000_000); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline ignored: ran %v", elapsed)
	}
}

func TestLocalizeDeterministicWithSeed(t *testing.T) {
	cam := scene.DefaultCamera(160, 120)
	cam.Pos = mathx.Vec3{X: 8, Y: 1.5, Z: 4}
	rng := rand.New(rand.NewSource(5))
	corr := synthCorrespondences(t, cam, rng, 15, 0)
	// No deadline: the wall clock must not decide the generation count.
	solve := func() (Result, error) {
		return searchSolve(corr, testIntrinsics(cam), mathx.Vec3{}, mathx.Vec3{X: 20, Y: 3, Z: 10}, solveSeed, 0, runtime.GOMAXPROCS(0), 60)
	}
	a, err := solve()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := solve()
	if a.Position != b.Position {
		t.Errorf("non-deterministic solve: %v vs %v", a.Position, b.Position)
	}
}

func TestLocalizeWithOutliers(t *testing.T) {
	// A handful of wrong 3D matches (as post-clustering residue) should
	// not destroy the estimate.
	cam := scene.DefaultCamera(320, 240)
	cam.Pos = mathx.Vec3{X: 14, Y: 1.6, Z: 9}
	cam.Yaw = 2.5
	rng := rand.New(rand.NewSource(6))
	corr := synthCorrespondences(t, cam, rng, 28, 0.5)
	// 2 outliers with wrong 3D points.
	for i := 0; i < 2; i++ {
		corr[i].P = mathx.Vec3{X: rng.Float64() * 40, Y: rng.Float64() * 3, Z: rng.Float64() * 20}
	}
	res, err := localizeLong(corr, testIntrinsics(cam),
		mathx.Vec3{}, mathx.Vec3{X: 40, Y: 3, Z: 20})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Position.Dist(cam.Pos); d > 2.5 {
		t.Errorf("position error with outliers %.2f m", d)
	}
}

func TestEstimateYawPerfectGeometry(t *testing.T) {
	cam := scene.DefaultCamera(320, 240)
	cam.Pos = mathx.Vec3{X: 3, Y: 1.5, Z: 3}
	cam.Yaw = 0.6
	rng := rand.New(rand.NewSource(7))
	corr := synthCorrespondences(t, cam, rng, 20, 0)
	yaw := EstimateYaw(corr, testIntrinsics(cam), cam.Pos)
	dyaw := math.Abs(math.Mod(yaw-cam.Yaw+3*math.Pi, 2*math.Pi) - math.Pi)
	if dyaw > 0.05 {
		t.Errorf("yaw error %.3f", dyaw)
	}
}

// TestSearchChecksContextEveryGeneration: the venue-wide search checks its
// context once before the initial population and once per generation, so
// a context canceled after k checks stops it with the error after at most
// dePopSize·(k+1) evaluations.
func TestSearchChecksContextEveryGeneration(t *testing.T) {
	corr, intr, lo, hi := identityScenario(13, 40)
	build := func() (*problem, *rand.Rand) {
		rng := rand.New(rand.NewSource(solveSeed))
		pr := newProblem(corr, intr, solveMaxPairs, rng)
		return &pr, rng
	}
	pr, rng := build()
	full, err := pr.search(context.Background(), rng, corr, intr, lo, hi, 0, 1, deMaxIterations)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 5, 20} {
		pr, rng := build()
		ctx := &cancelAfter{Context: context.Background(), after: k}
		res, err := pr.search(ctx, rng, corr, intr, lo, hi, 0, 1, deMaxIterations)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled after %d checks: err %v", k, err)
		}
		if res.Evals > dePopSize*(k+1) || res.Evals >= full.Evals {
			t.Fatalf("canceled after %d checks: %d evaluations (uncanceled %d), want <= %d", k, res.Evals, full.Evals, dePopSize*(k+1))
		}
	}
}

// bench30Corr is the benchmarks' query: 30 exact correspondences seen from
// a camera in a 50 x 3 x 20 m box.
func bench30Corr() ([]Correspondence, Intrinsics, mathx.Vec3, mathx.Vec3) {
	cam := scene.DefaultCamera(320, 240)
	cam.Pos = mathx.Vec3{X: 12, Y: 1.6, Z: 5}
	rng := rand.New(rand.NewSource(8))
	var corr []Correspondence
	for len(corr) < 30 {
		p := cam.Pos.Add(cam.Forward().Scale(3 + rng.Float64()*8)).Add(mathx.Vec3{
			X: rng.NormFloat64() * 2, Y: rng.NormFloat64(), Z: rng.NormFloat64() * 2,
		})
		if px, py, ok := cam.Project(p); ok {
			corr = append(corr, Correspondence{Px: px, Py: py, P: p})
		}
	}
	return corr, testIntrinsics(cam), mathx.Vec3{}, mathx.Vec3{X: 50, Y: 3, Z: 20}
}

func BenchmarkLocalize30Corr(b *testing.B) {
	corr, intr, lo, hi := bench30Corr()
	opt := Options{Deadline: 50 * time.Millisecond}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LocalizeContext(ctx, corr, intr, lo, hi, opt)
	}
}

// BenchmarkLocalizeSeeded is BenchmarkLocalize30Corr through the seeded
// cold solve: the hypothesis stage, the shrunk-box search and any fallback.
func BenchmarkLocalizeSeeded(b *testing.B) {
	corr, intr, lo, hi := bench30Corr()
	opt := Options{Deadline: 50 * time.Millisecond}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LocalizeCold(ctx, corr, intr, lo, hi, opt)
	}
}

// TestObjectiveMirrorSymmetricOnPlanarScene pins a defect of the objective:
// both residual terms are unsigned angles, so when every matched point lies
// on one vertical plane (a painting on a wall), a camera mirrored through
// that plane — behind the wall, 8 m from the true one — costs the same as the
// true camera, and the solver cannot tell them apart. A signed horizontal
// term or a cheirality check breaks the symmetry; that change must flip this
// test to require the mirrored camera to cost strictly more.
func TestObjectiveMirrorSymmetricOnPlanarScene(t *testing.T) {
	cam := scene.DefaultCamera(240, 180)
	cam.Yaw = 0.6
	n := cam.Forward() // the wall's normal: the camera faces the wall square on
	wall := mathx.Vec3{X: 7, Y: 1.5, Z: 9}
	cam.Pos = wall.Sub(n.Scale(4))
	tangent := mathx.Vec3{X: n.Z, Z: -n.X} // horizontal, in the wall plane

	rng := rand.New(rand.NewSource(5))
	var corr []Correspondence
	for len(corr) < 60 {
		p := wall.Add(tangent.Scale(rng.Float64()*4 - 2)).Add(mathx.Vec3{Y: rng.Float64()*2 - 1})
		px, py, ok := cam.Project(p)
		if !ok {
			continue
		}
		// Pixel noise keeps the objective well above zero, so the relative
		// comparison below is not one of two rounding errors.
		corr = append(corr, Correspondence{Px: px + rng.NormFloat64(), Py: py + rng.NormFloat64(), P: p})
	}
	pr, _, err := newSolve(corr, testIntrinsics(cam))
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]ptDir, len(pr.pts))
	cost := func(c mathx.Vec3) float64 {
		return pr.objective([3]float64{c.X, c.Y, c.Z}, dirs, math.Inf(1))
	}
	mirror := func(c mathx.Vec3) mathx.Vec3 { return c.Sub(n.Scale(2 * c.Sub(wall).Dot(n))) }

	// The true camera and two trial positions off it: the symmetry holds
	// for every position, not only at the optimum.
	for _, c := range []mathx.Vec3{cam.Pos, cam.Pos.Add(mathx.Vec3{X: 0.7, Y: 0.2, Z: -0.4}), cam.Pos.Add(n.Scale(-2))} {
		m := mirror(c)
		if d := c.Dist(m); d < 1 {
			t.Fatalf("mirror of %v is only %.2f m away; scenario invalid", c, d)
		}
		want, got := cost(c), cost(m)
		if want <= 0 {
			t.Fatalf("objective %v at %v: scenario invalid", want, c)
		}
		if rel := math.Abs(got-want) / want; rel > 1e-12 {
			t.Errorf("camera %v costs %.17g, its mirror %v costs %.17g (relative %.3g): the objective is no longer mirror-symmetric — flip this test", c, want, m, got, rel)
		}
	}
}
