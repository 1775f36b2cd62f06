package pose

// Coverage of the seeded cold solve (seed.go): the closed-form stage must
// recover exact camera centers, reject degenerate triples cleanly, run
// without allocating and without depending on the worker count, and the
// gated solve must never settle for a worse minimum than the venue-wide
// search it replaces.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"visualprint/internal/mathx"
	"visualprint/internal/scene"
)

// randomCamera is a camera at pos with uniformly random yaw, pitch within
// ±60° and roll within ±45°.
func randomCamera(rng *rand.Rand, pos mathx.Vec3) scene.Camera {
	cam := scene.DefaultCamera(320, 240)
	cam.Pos = pos
	cam.Yaw = rng.Float64() * 2 * math.Pi
	cam.Pitch = (rng.Float64() - 0.5) * 2 * math.Pi / 3
	cam.Roll = (rng.Float64() - 0.5) * math.Pi / 2
	return cam
}

// TestP3PRecoversCenter: on exact projections from cameras with random
// yaw, pitch and roll, one of P3P's hypotheses is the true center to 1e-6 m.
func TestP3PRecoversCenter(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	worst := 0.0
	for trial := 0; trial < 300; trial++ {
		cam := randomCamera(rng, mathx.Vec3{X: rng.Float64() * 10, Y: 1 + rng.Float64(), Z: rng.Float64() * 10})
		corr := synthCorrespondences(t, cam, rng, 3, 0)
		pr := newProblem(corr, testIntrinsics(cam), 0, nil)
		pts := [3]mathx.Vec3{corr[0].P, corr[1].P, corr[2].P}
		rays := [3]mathx.Vec3{pr.rays[0], pr.rays[1], pr.rays[2]}
		var centers [4]mathx.Vec3
		n := p3p(&pts, &rays, &centers)
		best := math.Inf(1)
		for _, c := range centers[:n] {
			best = math.Min(best, c.Dist(cam.Pos))
		}
		if best > 1e-6 {
			t.Fatalf("trial %d: %d hypotheses, nearest %.3g m from the true center %v", trial, n, best, cam.Pos)
		}
		worst = math.Max(worst, best)
	}
	t.Logf("worst nearest-hypothesis error over 300 cameras: %.3g m", worst)
}

// TestP3PDegenerateTriples: collinear or coincident points and coincident
// rays yield no hypothesis, and nothing NaN leaks out of the stage.
func TestP3PDegenerateTriples(t *testing.T) {
	ray := func(x, y float64) mathx.Vec3 { return mathx.Vec3{X: x, Y: y, Z: 1}.Normalize() }
	good := [3]mathx.Vec3{ray(-0.2, 0.1), ray(0.3, 0.05), ray(0.05, -0.25)}
	for name, tc := range map[string]struct {
		pts  [3]mathx.Vec3
		rays [3]mathx.Vec3
	}{
		"collinear points": {
			pts:  [3]mathx.Vec3{{X: 1, Y: 1, Z: 5}, {X: 2, Y: 1.5, Z: 5}, {X: 4, Y: 2.5, Z: 5}},
			rays: good,
		},
		"coincident points": {
			pts:  [3]mathx.Vec3{{X: 1, Y: 1, Z: 5}, {X: 1, Y: 1, Z: 5}, {X: 4, Y: 2.5, Z: 6}},
			rays: good,
		},
		"coincident rays": {
			pts:  [3]mathx.Vec3{{X: 1, Y: 1, Z: 5}, {X: 2, Y: 0.5, Z: 6}, {X: 4, Y: 2.5, Z: 5}},
			rays: [3]mathx.Vec3{good[0], good[0], good[2]},
		},
		"NaN point": {
			pts:  [3]mathx.Vec3{{X: math.NaN(), Y: 1, Z: 5}, {X: 2, Y: 0.5, Z: 6}, {X: 4, Y: 2.5, Z: 5}},
			rays: good,
		},
	} {
		var centers [4]mathx.Vec3
		if n := p3p(&tc.pts, &tc.rays, &centers); n != 0 {
			t.Errorf("%s: %d hypotheses %v, want none", name, n, centers[:n])
		}
	}

	// The whole stage over a correspondence set whose every triple is
	// degenerate: one pixel for all points, or all points on one line.
	intr := Intrinsics{W: 200, H: 150, FovX: 1.1, FovY: 0.85}
	lo, hi := mathx.Vec3{X: -10, Y: -10, Z: -10}, mathx.Vec3{X: 10, Y: 10, Z: 10}
	onePixel := make([]Correspondence, 12)
	line := make([]Correspondence, 12)
	for i := range onePixel {
		f := float64(i)
		onePixel[i] = Correspondence{Px: 80, Py: 60, P: mathx.Vec3{X: f, Y: 0.1 * f * f, Z: 5 - f}}
		line[i] = Correspondence{Px: 10 + 15*f, Py: 20 + 9*f, P: mathx.Vec3{X: f, Y: 0.5 * f, Z: 5}}
	}
	for name, corr := range map[string][]Correspondence{"one pixel": onePixel, "one line": line} {
		pr := newProblem(corr, intr, 0, nil)
		pos, _, ok := newSeeder(&pr, corr, lo, hi).best()
		if ok || math.IsNaN(pos.X+pos.Y+pos.Z) {
			t.Errorf("%s: stage returned a hypothesis %v", name, pos)
		}
	}
}

// TestRealRootsKnown: the root finder against polynomials built from known
// roots, at every degree it handles, and ones with no real root.
func TestRealRootsKnown(t *testing.T) {
	// fromRoots expands lead * prod(x - r) * quad, quad ascending.
	fromRoots := func(lead float64, quad []float64, roots ...float64) ([5]float64, int) {
		c := []float64{lead}
		if quad != nil {
			c = []float64{lead * quad[0], lead * quad[1], lead * quad[2]}
		}
		for _, r := range roots {
			next := make([]float64, len(c)+1)
			for i, ci := range c {
				next[i] -= r * ci
				next[i+1] += ci
			}
			c = next
		}
		var out [5]float64
		copy(out[:], c)
		return out, len(c) - 1
	}
	for _, tc := range []struct {
		lead  float64
		quad  []float64 // an irreducible quadratic factor, or nil
		roots []float64
	}{
		{1, nil, []float64{1, 2, -3, 0.5}},
		{-2.5, nil, []float64{-7.25, -0.01, 0.02, 40}},
		{1e-3, nil, []float64{0.3, 0.31, 1.7, 2}},
		{3, nil, []float64{-1, 1e-4, 5}},
		{1, nil, []float64{4, -9}},
		{0.7, nil, []float64{1.5}},
		{1, []float64{1, 0, 1}, []float64{4, -1}},
		{1, []float64{2, 0, 1}, nil},
		{-4, []float64{5, 2, 1}, []float64{0.25, 0.75}},
	} {
		c, deg := fromRoots(tc.lead, tc.quad, tc.roots...)
		var got [4]float64
		n := realRoots(c, deg, &got)
		want := slices.Clone(tc.roots)
		slices.Sort(want)
		if n != len(want) {
			t.Fatalf("%v: %d roots %v, want %v", c, n, got[:n], want)
		}
		for i, w := range want {
			if math.Abs(got[i]-w) > 1e-9*math.Max(1, math.Abs(w)) {
				t.Fatalf("%v: roots %v, want %v", c, got[:n], want)
			}
		}
	}
	// A zero leading coefficient drops to the lower degree.
	var got [4]float64
	if n := realRoots([5]float64{-6, 1, 1, 0, 0}, 4, &got); n != 2 || got[0] != -3 || got[1] != 2 {
		t.Fatalf("x^2+x-6 as a degree-4 array: %v", got[:n])
	}
}

// seedFixture builds the stage the way LocalizeCold does on a consistent
// 80-correspondence problem capped at 300 pairs.
func seedFixture() (*seeder, mathx.Vec3) {
	corr, intr, lo, hi, cam := warmScenario(80)
	pr, _, err := newSolve(corr, intr)
	if err != nil {
		panic(err)
	}
	return newSeeder(&pr, corr, lo, hi), cam
}

// TestSeedStageZeroAllocs: with its scratch built, the hypothesis stage
// (draw, P3P, root finding, ranking, full evaluation) allocates nothing.
func TestSeedStageZeroAllocs(t *testing.T) {
	s, cam := seedFixture()
	pos, _, ok := s.best()
	if !ok || pos.Dist(cam) > 1e-6 {
		t.Fatalf("stage on exact correspondences: %v (ok %v), want the true center %v", pos, ok, cam)
	}
	if n := testing.AllocsPerRun(20, func() { s.best() }); n != 0 {
		t.Fatalf("hypothesis stage allocates %v times, want 0", n)
	}
}

// outlierScene is a venue-sized synthetic query shaped like what the server
// hands the solver: 30-60 correspondences of one spatial cluster from a
// camera with random yaw, pitch and roll, half a pixel of noise on the
// inliers, and a 20-40 % share of outliers — wrong matches, random pixels
// paired with points inside the inliers' bounding box (the largest cluster
// keeps only candidates near each other). The search box is the 16 x 3 x
// 10 m venue padded by 0.3 m, as the server pads its venue bounds.
func outlierScene(seed int64) ([]Correspondence, Intrinsics, mathx.Vec3, mathx.Vec3, mathx.Vec3) {
	rng := rand.New(rand.NewSource(seed))
	venue := mathx.Vec3{X: 16, Y: 3, Z: 10}
	cam := scene.DefaultCamera(240, 180)
	cam.Pos = mathx.Vec3{X: 2 + rng.Float64()*12, Y: 1.2 + rng.Float64()*0.6, Z: 2 + rng.Float64()*6}
	cam.Yaw = rng.Float64() * 2 * math.Pi
	cam.Pitch = (rng.Float64() - 0.5) * 0.4
	cam.Roll = (rng.Float64() - 0.5) * 0.2
	n := 30 + rng.Intn(31)
	outliers := int(float64(n) * (0.2 + 0.2*rng.Float64()))
	lo := mathx.Vec3{X: math.Inf(1), Y: math.Inf(1), Z: math.Inf(1)}
	hi := lo.Scale(-1)
	var corr []Correspondence
	for len(corr) < n-outliers {
		p := cam.Pos.Add(cam.Forward().Scale(2 + rng.Float64()*6)).Add(mathx.Vec3{
			X: rng.NormFloat64() * 1.5, Y: rng.NormFloat64() * 0.7, Z: rng.NormFloat64() * 1.5,
		})
		if p.X < 0 || p.Y < 0 || p.Z < 0 || p.X > venue.X || p.Y > venue.Y || p.Z > venue.Z {
			continue
		}
		px, py, ok := cam.Project(p)
		if !ok {
			continue
		}
		corr = append(corr, Correspondence{Px: px + rng.NormFloat64()*0.5, Py: py + rng.NormFloat64()*0.5, P: p})
		lo = mathx.Vec3{X: math.Min(lo.X, p.X), Y: math.Min(lo.Y, p.Y), Z: math.Min(lo.Z, p.Z)}
		hi = mathx.Vec3{X: math.Max(hi.X, p.X), Y: math.Max(hi.Y, p.Y), Z: math.Max(hi.Z, p.Z)}
	}
	for len(corr) < n {
		p := mathx.Vec3{X: lo.X + rng.Float64()*(hi.X-lo.X), Y: lo.Y + rng.Float64()*(hi.Y-lo.Y), Z: lo.Z + rng.Float64()*(hi.Z-lo.Z)}
		corr = append(corr, Correspondence{Px: rng.Float64() * 240, Py: rng.Float64() * 180, P: p})
	}
	rng.Shuffle(len(corr), func(i, j int) { corr[i], corr[j] = corr[j], corr[i] })
	pad := mathx.Vec3{X: 0.3, Y: 0.3, Z: 0.3}
	return corr, testIntrinsics(cam), mathx.Vec3{}.Sub(pad), venue.Add(pad), cam.Pos
}

// noisyOutlierScene is outlierScene(seed) with 20 px of pixel noise, far
// beyond a real query's: it scatters the P3P hypotheses, so about a third of
// these scenes' refined answers end on their box and fall back, where the
// scenes as they are almost never do.
func noisyOutlierScene(seed int64) ([]Correspondence, Intrinsics, mathx.Vec3, mathx.Vec3) {
	corr, intr, lo, hi, _ := outlierScene(seed)
	rng := rand.New(rand.NewSource(seed))
	for i := range corr {
		corr[i].Px += 20 * rng.NormFloat64()
		corr[i].Py += 20 * rng.NormFloat64()
	}
	return corr, intr, lo, hi
}

// TestLocalizeColdNeverWorse: over 60 outlier-laden scenes the gated seeded
// solve's residual is never more than 0.1 % above the venue-wide search's,
// for at most half the objective evaluations in total. Outliers scattered
// over the whole venue, which clustering removes before the solver, are a
// regime this does not hold in: there the objective's lowest minimum is
// often a spurious one meters from the camera, and the venue-wide search
// finds it on a few percent of scenes where the seeded solve stays at the
// true camera (EXPERIMENTS.md "Cold pose solve").
func TestLocalizeColdNeverWorse(t *testing.T) {
	var opt Options // no deadline: the generation count must not depend on the clock
	var seededEvals, wideEvals int
	var seededErr, wideErr []float64
	for seed := int64(1); seed <= 60; seed++ {
		corr, intr, lo, hi, cam := outlierScene(seed)
		wide, err := LocalizeContext(t.Context(), corr, intr, lo, hi, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := LocalizeCold(t.Context(), corr, intr, lo, hi, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Residual > 1.001*wide.Residual {
			t.Errorf("scene %d: seeded residual %.6g > 1.001 x venue-wide %.6g (seeded %v, venue-wide %v, camera %v)",
				seed, got.Residual, wide.Residual, got.Position, wide.Position, cam)
		}
		seededEvals += got.Evals
		wideEvals += wide.Evals
		seededErr = append(seededErr, got.Position.Dist(cam))
		wideErr = append(wideErr, wide.Position.Dist(cam))
	}
	t.Logf("evaluations: seeded %d, venue-wide %d (%.2fx); median error: seeded %.3f m, venue-wide %.3f m",
		seededEvals, wideEvals, float64(seededEvals)/float64(wideEvals), mathx.Median(seededErr), mathx.Median(wideErr))
	if 2*seededEvals > wideEvals {
		t.Errorf("seeded solves used %d evaluations, venue-wide %d: want <= 50 %%", seededEvals, wideEvals)
	}
}

// TestLocalizeColdWorkerIndependent: the hypothesis stage and the refiner
// are serial, and a fallback's DE pool sizes itself by GOMAXPROCS without
// changing a bit, so the result is the same at any GOMAXPROCS — on two
// scenes that the seeded solve answers and one that falls back.
func TestLocalizeColdWorkerIndependent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type coldCase struct {
		corr   []Correspondence
		intr   Intrinsics
		lo, hi mathx.Vec3
	}
	var scenes []coldCase
	for _, seed := range []int64{3, 17} {
		corr, intr, lo, hi, _ := outlierScene(seed)
		scenes = append(scenes, coldCase{corr, intr, lo, hi})
	}
	corr, intr, lo, hi := noisyOutlierScene(3)
	scenes = append(scenes, coldCase{corr, intr, lo, hi})
	for k, sc := range scenes {
		var base Result
		for i, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got, err := LocalizeCold(t.Context(), sc.corr, sc.intr, sc.lo, sc.hi, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				base = got
			} else if got != base {
				t.Fatalf("scene %d GOMAXPROCS=%d diverged: %+v != %+v", k, procs, got, base)
			}
		}
	}
}

// TestLocalizeColdFallbackIsVenueWide: a cold solve that falls back — no
// in-box hypothesis, or a refined answer pinned to its box — answers
// LocalizeContext's Result bit for bit, with the seeded stage's and the
// refiner's evaluations added: the fallback searches the problem the
// seeded stage built, from the stream newProblem left.
func TestLocalizeColdFallbackIsVenueWide(t *testing.T) {
	var opt Options
	ctx := t.Context()
	// fellBack re-traces LocalizeCold's gate and, on a fallback, returns
	// the evaluations spent before it.
	fellBack := func(corr []Correspondence, intr Intrinsics, lo, hi mathx.Vec3) (int, bool) {
		pr, _, err := newSolve(corr, intr)
		if err != nil {
			t.Fatal(err)
		}
		s := newSeeder(&pr, corr, lo, hi)
		prior, evals, ok := s.best()
		if !ok {
			return evals, true
		}
		res, _, err := pr.refinePrior(ctx, corr, intr, lo, hi, prior, seedRadius, s.dirs)
		if err != nil {
			t.Fatal(err)
		}
		return evals + res.Evals, pinnedToPrior(res.Position, prior, lo, hi)
	}
	check := func(name string, corr []Correspondence, intr Intrinsics, lo, hi mathx.Vec3) bool {
		evals, ok := fellBack(corr, intr, lo, hi)
		if !ok {
			return false
		}
		want, err := LocalizeContext(ctx, corr, intr, lo, hi, opt)
		if err != nil {
			t.Fatal(err)
		}
		want.Evals += evals
		got, err := LocalizeCold(ctx, corr, intr, lo, hi, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: fallback %+v, want LocalizeContext plus %d seeded evaluations: %+v", name, got, evals, want)
		}
		return true
	}
	// Every triple collinear: no hypothesis at all.
	intr := Intrinsics{W: 200, H: 150, FovX: 1.1, FovY: 0.85}
	line := make([]Correspondence, 12)
	for i := range line {
		f := float64(i)
		line[i] = Correspondence{Px: 10 + 15*f, Py: 20 + 9*f, P: mathx.Vec3{X: f, Y: 0.5 * f, Z: 5}}
	}
	if !check("one line", line, intr, mathx.Vec3{X: -10, Y: -10, Z: -10}, mathx.Vec3{X: 10, Y: 10, Z: 10}) {
		t.Fatal("one line: the cold solve found a hypothesis")
	}
	pinned := 0
	for seed := int64(1); seed <= 20; seed++ {
		corr, intr, lo, hi := noisyOutlierScene(seed)
		if check(fmt.Sprintf("scene %d", seed), corr, intr, lo, hi) {
			pinned++
		}
	}
	t.Logf("%d of 20 noisy outlier scenes fell back", pinned)
	if pinned == 0 {
		t.Fatal("no outlier scene fell back: the pinned path went untested")
	}
}

// TestPinnedToPrior: the gate fires only near a face of the shrunk box that
// lies inside the venue box.
func TestPinnedToPrior(t *testing.T) {
	lo, hi := mathx.Vec3{}, mathx.Vec3{X: 10, Y: 3, Z: 10}
	prior := mathx.Vec3{X: 5, Y: 1.5, Z: 5}
	for _, tc := range []struct {
		pos, prior mathx.Vec3
		want       bool
	}{
		{mathx.Vec3{X: 5.1, Y: 1.4, Z: 4.8}, prior, false},
		{mathx.Vec3{X: 5.495, Y: 1.5, Z: 5}, prior, true},
		{mathx.Vec3{X: 5, Y: 1.5, Z: 4.505}, prior, true},
		{mathx.Vec3{X: 5, Y: 1.015, Z: 5}, prior, false},
		// The shrunk box's low Y face is the venue's floor: no fallback.
		{mathx.Vec3{X: 5, Y: 0.001, Z: 5}, mathx.Vec3{X: 5, Y: 0.2, Z: 5}, false},
		{mathx.Vec3{X: 5, Y: 0.695, Z: 5}, mathx.Vec3{X: 5, Y: 0.2, Z: 5}, true},
	} {
		if got := pinnedToPrior(tc.pos, tc.prior, lo, hi); got != tc.want {
			t.Errorf("pinnedToPrior(%v, prior %v) = %v, want %v", tc.pos, tc.prior, got, tc.want)
		}
	}
}
