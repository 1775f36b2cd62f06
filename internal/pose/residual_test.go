package pose

// Parity of the pair-sum kernel (pairSum2, residual_amd64.s) with its
// generic Go twin, by exact float64 bits. Off amd64 pairSum is the twin
// itself and these tests hold trivially.

import (
	"math"
	"math/rand"
	"testing"

	"visualprint/internal/mathx"
)

// checkSum fails t unless the kernel path and the Go loop agree bit for bit.
func checkSum(t testing.TB, what string, pairs []pairGeometry, dirs []ptDir, limit float64) {
	t.Helper()
	got, want := pairSum(pairs, dirs, limit), pairSumGeneric(pairs, dirs, 0, limit)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: %d pairs, limit %v: pairSum %x (%v) != generic %x (%v)",
			what, len(pairs), limit, math.Float64bits(got), got, math.Float64bits(want), want)
	}
}

// defaultNaN is the NaN an invalid operation such as ∞·0 returns, the only
// NaN that direction and the objective's arithmetic produce. The tests use
// no other: where two NaNs of different bits meet in an addition or a
// product, Go does not fix which one passes (the -race build and the plain
// one differ), so neither the kernel nor the Go loop has a reference bit
// pattern for that case.
var defaultNaN = math.Float64frombits(0xfff8000000000000)

// unitDir is a defined direction along +X in 3D and in the X/Z plane; a
// pair of it with itself has dot products of exactly 1, so with g3 = gx = 0
// its residual is exactly 0.
var unitDir = ptDir{ux: 1, hx: 1, ok3: dirOK, okx: dirOK}

// checkLanes checks pg's residual alone in each lane of the kernel, beside
// a pair of residual exactly 0 (dirs' last entry must be unitDir), so the
// sum is the residual's own bits, NaN payload and all. It also checks the
// pair twice under limit 0, which stops after lane 0 unless the residual is
// NaN.
func checkLanes(t testing.TB, what string, pg pairGeometry, dirs []ptDir) {
	t.Helper()
	z := int32(len(dirs) - 1)
	zero := pairGeometry{ia: z, ib: z}
	checkSum(t, what+" lane 0", []pairGeometry{pg, zero}, dirs, math.Inf(1))
	checkSum(t, what+" lane 1", []pairGeometry{zero, pg}, dirs, math.Inf(1))
	checkSum(t, what+" lane 0 alone", []pairGeometry{pg, pg}, dirs, 0)
}

// checkLimits checks pairs under the limits that end a sum in different
// places: none (+Inf, NaN), after the first pair (0), at the last pair (the
// full sum) or before it (the full sum less an ulp), and at a few prefix
// sums.
func checkLimits(t testing.TB, what string, pairs []pairGeometry, dirs []ptDir) {
	t.Helper()
	full := pairSumGeneric(pairs, dirs, 0, math.Inf(1))
	limits := []float64{math.Inf(1), math.NaN(), 0, full, math.Nextafter(full, 0)}
	var s float64
	for k := range pairs {
		s += pairs[k].residual(&dirs[pairs[k].ia], &dirs[pairs[k].ib])
		if k < 4 || k%37 == 0 {
			limits = append(limits, s, math.Nextafter(s, 0))
		}
	}
	for _, limit := range limits {
		checkSum(t, what, pairs, dirs, limit)
	}
}

// TestPairSumMatchesGeneric: the kernel and the Go loop give the same bits
// for every pair count from 0 to 9 and 300, with every residual checked in
// each lane, at degenerate and non-finite directions, dot products just
// beyond ±1 and at ±0, residuals at the cap and an ulp either side, and
// limits that end the sum anywhere or nowhere.
func TestPairSumMatchesGeneric(t *testing.T) {
	corr, intr, _, _, cam := warmScenario(80)
	pr := newProblem(corr, intr, solveMaxPairs, rand.New(rand.NewSource(17)))
	if len(pr.pairs) != 300 {
		t.Fatalf("scenario has %d pairs, want 300", len(pr.pairs))
	}
	rng := rand.New(rand.NewSource(45))
	positions := [][3]float64{
		{cam.X, cam.Y, cam.Z},
		{pr.pts[0].X, pr.pts[0].Y, pr.pts[0].Z},     // on a point
		{pr.pts[1].X, pr.pts[1].Y + 2, pr.pts[1].Z}, // directly above one
	}
	for i := 0; i < 12; i++ {
		positions = append(positions, [3]float64{rng.Float64()*10 - 1, rng.Float64() * 3.5, rng.Float64()*10 - 1})
	}
	dirs := make([]ptDir, len(pr.pts)+1)
	dirs[len(pr.pts)] = unitDir
	for _, v := range positions {
		for i, p := range pr.pts {
			dirs[i].direction(p, v[0], v[1], v[2])
		}
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 300} {
			checkLimits(t, "scenario", pr.pairs[:n], dirs)
		}
		for k := range pr.pairs {
			checkLanes(t, "scenario", pr.pairs[k], dirs)
		}
	}

	// Directions set by hand, unitDir last.
	up := math.Nextafter(1, 2)
	inf, nan, nz := math.Inf(1), defaultNaN, math.Copysign(0, -1)
	hand := []ptDir{
		{ux: up, hx: up, ok3: dirOK, okx: dirOK},                         // with 1: dot one ulp above 1
		{ux: 1, hx: 1, ok3: dirOK, okx: dirOK},                           //
		{ux: -1, hx: -1, ok3: dirOK, okx: dirOK},                         // with up: dot one ulp below -1
		{ok3: dirOK, okx: dirOK},                                         // dot +0
		{ux: nz, uy: nz, uz: nz, hx: nz, hz: nz, ok3: dirOK, okx: dirOK}, // with 1: dot -0
		{ux: nan, uy: 0.5, hx: nan, ok3: dirOK, okx: dirOK},
		{ux: inf, hz: -inf, ok3: dirOK, okx: dirOK},
		{ux: 0.6, uy: 0.8, hx: 1, ok3: dirOK},            // azimuth undefined
		{ux: 0.6, uz: 0.8, hx: 0.6, hz: 0.8, okx: dirOK}, // 3D direction undefined
		{ux: nan, hx: 0.6, hz: 0.8, okx: dirOK},          // NaN behind a clear flag
		{},                                               // the camera on the point
		{ux: 0.28, uy: -0.96, hx: 0.6, hz: -0.8, ok3: dirOK, okx: dirOK},
	}
	// A NaN in each of the five components alone.
	for c := 0; c < 5; c++ {
		d := ptDir{ux: 0.6, uy: 0.8, hx: 0.6, hz: 0.8, ok3: dirOK, okx: dirOK}
		*[]*float64{&d.ux, &d.uy, &d.uz, &d.hx, &d.hz}[c] = nan
		hand = append(hand, d)
	}
	// And directions from non-finite coordinates, of the point or the camera.
	for _, c := range [][6]float64{
		{nan, 1, 2, 0, 0, 0},
		{1, inf, 2, 0, 0, 0},
		{inf, 1, -inf, 0, 0, 0},
		{1, 1, 1, nan, 0, 0},
		{1, 1, 1, 0, -inf, 0},
		{1, 1, 1, 0, 0, inf},
		{1e-7, 1, 1e-7, 0, 0, 0},
	} {
		var d ptDir
		d.direction(mathx.Vec3{X: c[0], Y: c[1], Z: c[2]}, c[3], c[4], c[5])
		hand = append(hand, d)
	}
	hand = append(hand, unitDir)
	unit := int32(len(hand) - 1)
	capDn, capUp := math.Nextafter(residualCap, 0), math.Nextafter(residualCap, 1)
	angles := [][2]float64{
		{0, 0}, {0.3, 0.2}, {math.Pi, 1}, {2, math.Pi}, {nan, 0.2}, {0.2, nan}, {inf, 0}, {0.1, -inf},
		{1.5, 1.5}, // below the cap at a dot of ±0, the reflection's edge
		// e3 at the cap and an ulp either side (with the unit pair e3 = g3).
		{residualCap, 0}, {capDn, 0}, {capUp, 0}, {capDn, 1e-300},
		// e = 0.5·gx at the cap and an ulp either side.
		{0, 2 * residualCap}, {0, 2 * capDn}, {0, 2 * capUp},
	}
	var all []pairGeometry
	for a := range hand {
		for b := range hand {
			for _, g := range angles {
				pg := pairGeometry{ia: int32(a), ib: int32(b), g3: g[0], gx: g[1]}
				checkLanes(t, "hand", pg, hand)
				all = append(all, pg)
			}
		}
	}
	// The unit pair's residual is exactly g3 below the cap, so these sit on
	// it and an ulp either side in both lanes.
	for _, g := range [][2]float64{{residualCap, 0}, {capDn, 0}, {capUp, 0}, {0, 2 * capDn}} {
		pg := pairGeometry{ia: unit, ib: unit, g3: g[0], gx: g[1]}
		if r := pg.residual(&hand[unit], &hand[unit]); g[0] == capDn && r != capDn {
			t.Fatalf("unit pair residual %v, want %v", r, capDn)
		}
		checkLanes(t, "cap", pg, hand)
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 300} {
		checkLimits(t, "hand", all[:n], hand)
	}
}

// TestObjectivePanicsOnShortDirs: the objective indexes its direction
// scratch in Go before any pair is summed, so a scratch shorter than the
// problem's point list panics instead of letting the kernel read past it.
func TestObjectivePanicsOnShortDirs(t *testing.T) {
	corr, intr, _, _, cam := warmScenario(20)
	pr := newProblem(corr, intr, solveMaxPairs, rand.New(rand.NewSource(1)))
	dirs := make([]ptDir, len(pr.pts)-1, len(pr.pts)+8)
	defer func() {
		if recover() == nil {
			t.Fatal("objective with a short dirs did not panic")
		}
	}()
	pr.objective([3]float64{cam.X, cam.Y, cam.Z}, dirs, math.Inf(1))
}

// FuzzPairSum: for any camera, two points, observed angles and limit, the
// kernel and the Go loop agree bit for bit on each pair alone in either
// lane and on sums of one to five pairs.
func FuzzPairSum(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 1.0, 0.5, 3.0, -1.0, 0.2, 4.0, 0.3, 0.2, math.Inf(1))
	f.Add(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 3.0, 1.0, 0.5, 0.5, 0.0)
	f.Add(0.0, 0.0, 0.0, math.Inf(1), 0.0, 1.0, math.NaN(), 1.0, 1.0, math.NaN(), 1.0, 0.7)
	f.Add(4.0, 1.4, 2.0, 2.0, 1.0, 7.5, 6.0, 1.8, 7.2, residualCap, 2*residualCap, math.NaN())
	f.Fuzz(func(t *testing.T, x, y, z, ax, ay, az, bx, by, bz, g3, gx, limit float64) {
		if g3 != g3 {
			g3 = defaultNaN
		}
		if gx != gx {
			gx = defaultNaN
		}
		dirs := make([]ptDir, 3)
		dirs[0].direction(mathx.Vec3{X: ax, Y: ay, Z: az}, x, y, z)
		dirs[1].direction(mathx.Vec3{X: bx, Y: by, Z: bz}, x, y, z)
		dirs[2] = unitDir
		pairs := []pairGeometry{
			{ia: 0, ib: 1, g3: g3, gx: gx},
			{ia: 1, ib: 0, g3: gx, gx: g3},
			{ia: 0, ib: 0, g3: g3, gx: g3},
			{ia: 1, ib: 2, g3: gx, gx: gx},
			{ia: 2, ib: 1, g3: g3, gx: gx},
		}
		for _, pg := range pairs {
			checkLanes(t, "fuzz", pg, dirs)
		}
		for n := 1; n <= len(pairs); n++ {
			checkSum(t, "fuzz", pairs[:n], dirs, limit)
		}
	})
}
