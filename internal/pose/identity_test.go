package pose

// Bit-identity regression coverage for the optimized solver (see DESIGN.md
// "Performance"). The optimizations must be invisible in the output:
//
//   - the objective over per-point direction scratch and compact point
//     indices must match the plain per-pair form of the same arithmetic
//     (normalize both camera-to-point vectors, dot, polynomial arccos) bit
//     for bit;
//   - pair set-up that shuffles an index list and builds only the kept pairs
//     must keep exactly the pairs build-all-then-shuffle keeps, in order;
//   - Localize with the early-abort objective must match a reference solver
//     that evaluates every trial in full with the reference residual;
//   - the worker count must not change a single output bit, because every
//     RNG draw is serial and each trial's cost is an independent serial
//     summation.

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"visualprint/internal/mathx"
)

// refPair is one keypoint pair in the reference's self-contained form: both
// endpoints by value, no shared point list.
type refPair struct {
	pi, pj mathx.Vec3
	g3, gx float64
}

// referenceResidual is the per-pair residual with nothing shared between
// pairs: both directions are normalized from scratch on every call.
func referenceResidual(rp *refPair, x, y, z float64) float64 {
	dix, diy, diz := rp.pi.X-x, rp.pi.Y-y, rp.pi.Z-z
	djx, djy, djz := rp.pj.X-x, rp.pj.Y-y, rp.pj.Z-z
	ai := dix*dix + diz*diz
	aj := djx*djx + djz*djz
	di := ai + diy*diy
	dj := aj + djy*djy
	e3 := math.Pi
	if di > 1e-12 && dj > 1e-12 {
		ii, ij := 1/math.Sqrt(di), 1/math.Sqrt(dj)
		e3 = math.Abs(acos((dix*ii)*(djx*ij)+(diy*ii)*(djy*ij)+(diz*ii)*(djz*ij)) - rp.g3)
	}
	ex := math.Pi
	if ai > 1e-12 && aj > 1e-12 {
		ii, ij := 1/math.Sqrt(ai), 1/math.Sqrt(aj)
		ex = math.Abs(acos((dix*ii)*(djx*ij)+(diz*ii)*(djz*ij)) - rp.gx)
	}
	e := e3 + 0.5*ex
	if e > residualCap {
		e = residualCap
	}
	return e
}

// pairResidual evaluates one pair through the production objective.
func pairResidual(rp refPair, x, y, z float64) float64 {
	pr := problem{
		pts:   []mathx.Vec3{rp.pi, rp.pj},
		pairs: []pairGeometry{{ia: 0, ib: 1, g3: rp.g3, gx: rp.gx}},
	}
	return pr.objective([3]float64{x, y, z}, make([]ptDir, 2), math.Inf(1))
}

// TestResidualMatchesReference: production vs reference residual, compared
// by exact float64 bits over a broad random sweep including degenerate
// (camera-on-point and camera-above-point) positions.
func TestResidualMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 5000; trial++ {
		rp := refPair{
			pi: mathx.Vec3{X: rng.Float64()*20 - 10, Y: rng.Float64() * 3, Z: rng.Float64()*20 - 10},
			pj: mathx.Vec3{X: rng.Float64()*20 - 10, Y: rng.Float64() * 3, Z: rng.Float64()*20 - 10},
			gx: rng.Float64(),
			g3: rng.Float64() * 2,
		}
		var x, y, z float64
		switch {
		case trial%17 == 0:
			x, y, z = rp.pi.X, rp.pi.Y, rp.pi.Z // zero range to point i
		case trial%17 == 1:
			x, y, z = rp.pj.X, rp.pj.Y+1, rp.pj.Z // zero X/Z range to point j
		default:
			x, y, z = rng.Float64()*24-12, rng.Float64()*4, rng.Float64()*24-12
		}
		got := pairResidual(rp, x, y, z)
		want := referenceResidual(&rp, x, y, z)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: residual %x (%v) != reference %x (%v)",
				trial, math.Float64bits(got), got, math.Float64bits(want), want)
		}
	}
}

// referencePairs is pair set-up in its obvious form: build every pair, with
// rays and gammas recomputed per pair, then shuffle the built pairs and
// truncate.
func referencePairs(corr []Correspondence, intr Intrinsics, maxPairs int, rng *rand.Rand) []refPair {
	cx, cy := float64(intr.W)/2, float64(intr.H)/2
	focal := cx / math.Tan(intr.FovX/2)
	ray := func(px, py float64) mathx.Vec3 {
		return mathx.Vec3{X: (px - cx) / focal, Y: -(py - cy) / focal, Z: 1}.Normalize()
	}
	var pairs []refPair
	for i := 0; i < len(corr); i++ {
		ri := ray(corr[i].Px, corr[i].Py)
		gi := gamma(corr[i].Px, cx, intr.FovX, float64(intr.W))
		for j := i + 1; j < len(corr); j++ {
			rj := ray(corr[j].Px, corr[j].Py)
			gj := gamma(corr[j].Px, cx, intr.FovX, float64(intr.W))
			pairs = append(pairs, refPair{
				pi: corr[i].P,
				pj: corr[j].P,
				g3: math.Acos(mathx.Clamp(ri.Dot(rj), -1, 1)),
				gx: math.Abs(gi - gj),
			})
		}
	}
	if maxPairs > 0 && len(pairs) > maxPairs {
		rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
		pairs = pairs[:maxPairs]
	}
	return pairs
}

// TestProblemKeepsReferencePairs: shuffling the index list draws the same
// swaps as shuffling built pairs, so the kept pairs — endpoints resolved
// through the compact point list, g3 and gx by bits — are the reference's,
// in order, and the RNG is left in the same state.
func TestProblemKeepsReferencePairs(t *testing.T) {
	for _, tc := range []struct {
		seed     int64
		n        int
		maxPairs int
	}{
		{1, 40, 300},
		{2, 80, 300},
		{3, 25, 100},
		{4, 12, 300}, // fewer pairs than the cap: no shuffle, no draw
		{5, 30, 0},   // uncapped
	} {
		corr, intr, _, _ := identityScenario(tc.seed, tc.n)
		rngGot, rngWant := rand.New(rand.NewSource(tc.seed)), rand.New(rand.NewSource(tc.seed))
		pr := newProblem(corr, intr, tc.maxPairs, rngGot)
		want := referencePairs(corr, intr, tc.maxPairs, rngWant)
		if len(pr.pairs) != len(want) {
			t.Fatalf("seed %d: kept %d pairs, reference %d", tc.seed, len(pr.pairs), len(want))
		}
		if len(pr.pts) > len(corr) {
			t.Fatalf("seed %d: %d compact points from %d correspondences", tc.seed, len(pr.pts), len(corr))
		}
		used := make([]bool, len(pr.pts))
		for k, pg := range pr.pairs {
			used[pg.ia], used[pg.ib] = true, true
			got := refPair{pi: pr.pts[pg.ia], pj: pr.pts[pg.ib], g3: pg.g3, gx: pg.gx}
			if got != want[k] {
				t.Fatalf("seed %d pair %d: %+v != reference %+v", tc.seed, k, got, want[k])
			}
		}
		for i, u := range used {
			if !u {
				t.Fatalf("seed %d: compact point %d is referenced by no kept pair", tc.seed, i)
			}
		}
		if rngGot.Int63() != rngWant.Int63() {
			t.Fatalf("seed %d: set-up consumed different randomness", tc.seed)
		}
	}
}

// referenceLocalize mirrors Localize's synchronous-generation DE exactly —
// the same RNG draw order, same clamping, same selection — but evaluates
// every trial in full (no early abort) with referenceResidual, serially.
func referenceLocalize(corr []Correspondence, intr Intrinsics, lo, hi mathx.Vec3, opt Options) Result {
	rng := rand.New(rand.NewSource(opt.Seed))
	pairs := referencePairs(corr, intr, opt.MaxPairs, rng)
	objective := func(v [3]float64) float64 {
		var s float64
		for k := range pairs {
			s += referenceResidual(&pairs[k], v[0], v[1], v[2])
		}
		return s
	}
	span := [3]float64{hi.X - lo.X, hi.Y - lo.Y, hi.Z - lo.Z}
	lov := [3]float64{lo.X, lo.Y, lo.Z}
	evals := 0
	pop := make([][3]float64, opt.PopSize)
	cost := make([]float64, opt.PopSize)
	for i := range pop {
		pop[i] = [3]float64{
			lov[0] + rng.Float64()*span[0],
			lov[1] + rng.Float64()*span[1],
			lov[2] + rng.Float64()*span[2],
		}
		cost[i] = objective(pop[i])
	}
	evals += opt.PopSize
	trials := make([][3]float64, opt.PopSize)
	for iter := 0; iter < opt.MaxIterations; iter++ {
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
		evals += opt.PopSize
		for i := range pop {
			if tc := objective(trials[i]); tc < cost[i] {
				pop[i], cost[i] = trials[i], tc
			}
		}
		if opt.Tol > 0 {
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
			if math.Sqrt(s2/float64(len(cost))) <= opt.Tol*math.Abs(mean) {
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
	return Result{
		Position: pos,
		Residual: cost[best] / float64(len(pairs)),
		Evals:    evals,
		Yaw:      EstimateYaw(corr, intr, pos),
	}
}

// identityScenario builds a deterministic solvable correspondence set.
func identityScenario(seed int64, n int) ([]Correspondence, Intrinsics, mathx.Vec3, mathx.Vec3) {
	rng := rand.New(rand.NewSource(seed))
	intr := Intrinsics{W: 200, H: 150, FovX: 1.1, FovY: 0.85}
	corr := make([]Correspondence, n)
	for i := range corr {
		corr[i] = Correspondence{
			Px: rng.Float64() * 200,
			Py: rng.Float64() * 150,
			P:  mathx.Vec3{X: rng.Float64() * 8, Y: rng.Float64() * 3, Z: rng.Float64() * 6},
		}
	}
	return corr, intr, mathx.Vec3{X: -1, Y: 0, Z: -1}, mathx.Vec3{X: 9, Y: 3.5, Z: 7}
}

// identityOptions: a deadline-free fixed-seed configuration (a wall-clock
// budget would make the generation count timing-dependent).
func identityOptions(workers int) Options {
	opt := DefaultOptions()
	opt.Deadline = 0
	opt.MaxIterations = 40
	opt.Workers = workers
	return opt
}

// TestLocalizeMatchesReferenceSolver: the production solver — precomputed
// pair geometry, early-abort objective, worker-pool evaluation — must agree
// bit for bit with the full-evaluation reference at several seeds and sizes.
func TestLocalizeMatchesReferenceSolver(t *testing.T) {
	for _, tc := range []struct {
		seed    int64
		n       int
		workers int
	}{
		{3, 12, 1},
		{4, 20, 1},
		{5, 30, 4},
		{6, 9, 0},
	} {
		corr, intr, lo, hi := identityScenario(tc.seed, tc.n)
		opt := identityOptions(tc.workers)
		opt.Seed = tc.seed * 11
		got, err := Localize(corr, intr, lo, hi, opt)
		if err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
		}
		want := referenceLocalize(corr, intr, lo, hi, opt)
		if got != want {
			t.Fatalf("seed %d workers %d: optimized %+v != reference %+v",
				tc.seed, tc.workers, got, want)
		}
	}
}

// TestLocalizeWorkerCountBitIdentical: any worker count must produce the
// exact same Result for a fixed seed.
func TestLocalizeWorkerCountBitIdentical(t *testing.T) {
	corr, intr, lo, hi := identityScenario(9, 24)
	base, err := Localize(corr, intr, lo, hi, identityOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 8} {
		got, err := Localize(corr, intr, lo, hi, identityOptions(workers))
		if err != nil {
			t.Fatal(err)
		}
		if got != base {
			t.Fatalf("workers=%d diverged: %+v != %+v", workers, got, base)
		}
	}
}

// TestLocalizeDeadlineStillBounds: the synchronous-generation loop must
// still honor the wall-clock budget of the paper's time-bounded solve.
func TestLocalizeDeadlineStillBounds(t *testing.T) {
	corr, intr, lo, hi := identityScenario(13, 40)
	opt := DefaultOptions()
	opt.MaxIterations = 1 << 20
	opt.Deadline = 30 * time.Millisecond
	start := time.Now()
	if _, err := Localize(corr, intr, lo, hi, opt); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline-bounded solve ran %v", elapsed)
	}
}

// generationFixture sets up one generation's worth of state the way
// LocalizeContext does — an 80-correspondence problem capped at 300 pairs, a
// 48-member population and a trial per member — and returns the Workers: 1
// batch evaluator over it. The correspondences are consistent and the trials
// sit within half a metre of the true camera, the regime a solve spends most
// generations in: nearly every pair runs both arccos terms, as 98 % do in a
// benchmark query.
func generationFixture() (evaluate func(), trialCost []float64) {
	corr, intr, _, _, cam := warmScenario(80)
	rng := rand.New(rand.NewSource(17))
	pr := newProblem(corr, intr, 300, rng)
	dirs := make([]ptDir, len(pr.pts))
	const popSize = 48
	sample := func() [3]float64 {
		return [3]float64{
			cam.X + rng.Float64() - 0.5,
			cam.Y + rng.Float64() - 0.5,
			cam.Z + rng.Float64() - 0.5,
		}
	}
	cost := make([]float64, popSize)
	trials := make([][3]float64, popSize)
	for i := range trials {
		cost[i] = math.Inf(1) // every trial is summed in full
		trials[i] = sample()
	}
	trialCost = make([]float64, popSize)
	return newBatchEvaluator(1, &pr, dirs, trials, trialCost, cost), trialCost
}

// TestEvaluateZeroAllocs: the direction scratch is allocated once per solve,
// so evaluating a generation allocates nothing.
func TestEvaluateZeroAllocs(t *testing.T) {
	evaluate, _ := generationFixture()
	if n := testing.AllocsPerRun(20, evaluate); n != 0 {
		t.Fatalf("one generation's evaluate() allocates %v times, want 0", n)
	}
}

// BenchmarkObjective300Pairs times one generation with no early abort: 48
// trials x (80 directions + 300 residuals), the loop a cold solve runs ~44
// times.
func BenchmarkObjective300Pairs(b *testing.B) {
	evaluate, trialCost := generationFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evaluate()
	}
	if trialCost[0] <= 0 {
		b.Fatal("evaluate produced no cost")
	}
}
