package pose

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"visualprint/internal/mathx"
)

// acosErrBound is the polynomial arccos's absolute error bound with
// headroom: the documented maximum is 2.2e-8 rad (see acos).
const acosErrBound = 5e-8

// TestAcosErrorBound sweeps [-1, 1] densely against math.Acos, pins the
// endpoints and the sign seam, and checks the approximation never increases.
func TestAcosErrorBound(t *testing.T) {
	if got := acos(1); got != 0 {
		t.Errorf("acos(1) = %g, want exactly 0", got)
	}
	if got := acos(-1); got != math.Pi {
		t.Errorf("acos(-1) = %g, want exactly pi", got)
	}
	if acos(1+1e-15) != 0 || acos(-1-1e-15) != math.Pi {
		t.Error("arguments an ulp outside [-1, 1] are not clamped")
	}
	const n = 2_000_000
	var worst, worstAt float64
	check := func(x float64) {
		if e := math.Abs(acos(x) - math.Acos(x)); e > worst || e != e {
			worst, worstAt = e, x
		}
	}
	for i := 0; i <= n; i++ {
		check(-1 + 2*float64(i)/n)
	}
	zeroNeg := math.Copysign(0, -1)
	for _, x := range []float64{0, zeroNeg, 5e-324, -5e-324, 1e-300, -1e-300, 1e-9, -1e-9} {
		check(x)
	}
	if !(worst <= acosErrBound) {
		t.Errorf("max |acos - math.Acos| = %g at x = %g, want <= %g", worst, worstAt, acosErrBound)
	}
	// +0 and -0 take the same (non-negative) branch; the step across the seam
	// goes down, so the function is non-increasing through it.
	if acos(0) != acos(zeroNeg) || acos(-5e-324) < acos(0) {
		t.Error("sign seam at 0 is not non-increasing")
	}
	prev := acos(-1)
	for i := 1; i <= 4096; i++ {
		cur := acos(-1 + 2*float64(i)/4096)
		if cur > prev {
			t.Fatalf("acos increases at grid step %d: %g > %g", i, cur, prev)
		}
		prev = cur
	}
}

// TestResidualZeroAtTruePosition: with exact correspondences, the pairwise
// angular residual evaluated at the true camera position vanishes up to the
// arccos approximation: the observed angles come from math.Acos/Atan2, the
// two residual terms from the polynomial, so each term is off by at most one
// error bound and the sum (3D + half azimuthal) by 1.5 of them; 2 leaves room
// for the rounding of the normalizations.
func TestResidualZeroAtTruePosition(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 50; trial++ {
		cam := mathx.Vec3{
			X: rng.Float64()*20 - 10,
			Y: rng.Float64() * 3,
			Z: rng.Float64()*20 - 10,
		}
		// Two visible points and their exact observed angles.
		pi := cam.Add(mathx.Vec3{X: rng.NormFloat64() * 3, Y: rng.NormFloat64(), Z: 4 + rng.Float64()*4})
		pj := cam.Add(mathx.Vec3{X: rng.NormFloat64() * 3, Y: rng.NormFloat64(), Z: 4 + rng.Float64()*4})
		ri := pi.Sub(cam).Normalize()
		rj := pj.Sub(cam).Normalize()
		g3 := math.Acos(mathx.Clamp(ri.Dot(rj), -1, 1))
		// Azimuths about the vertical axis.
		ai := math.Atan2(pi.X-cam.X, pi.Z-cam.Z)
		aj := math.Atan2(pj.X-cam.X, pj.Z-cam.Z)
		gx := math.Abs(math.Mod(ai-aj+3*math.Pi, 2*math.Pi) - math.Pi)
		if r := pairResidual(refPair{pi: pi, pj: pj, g3: g3, gx: gx}, cam.X, cam.Y, cam.Z); r > 2*acosErrBound {
			t.Fatalf("trial %d: residual %g at the true position", trial, r)
		}
	}
}

// TestResidualPositiveElsewhere: the residual grows away from the true
// position (no spurious global zero for a generic pair).
func TestResidualNonNegativeAndCapped(t *testing.T) {
	rp := refPair{
		pi: mathx.Vec3{X: 1, Y: 1, Z: 5},
		pj: mathx.Vec3{X: -2, Y: 1.5, Z: 6},
		g3: 0.3, gx: 0.2,
	}
	f := func(x, y, z float64) bool {
		r := pairResidual(rp, math.Mod(x, 50), math.Mod(y, 5), math.Mod(z, 50))
		return r >= 0 && r <= residualCap
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestGammaAntisymmetric: gamma is odd around the image center.
func TestGammaAntisymmetric(t *testing.T) {
	f := func(off float64) bool {
		off = math.Mod(off, 50)
		fov := 1.2
		a := gamma(100+off, 100, fov, 200)
		b := gamma(100-off, 100, fov, 200)
		return math.Abs(a+b) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEstimateYawInvariantToPointPermutation: the circular-mean yaw must
// not depend on correspondence order.
func TestEstimateYawInvariantToPointPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	intr := Intrinsics{W: 200, H: 150, FovX: 1.1, FovY: 0.9}
	pos := mathx.Vec3{X: 3, Y: 1.5, Z: 2}
	var corr []Correspondence
	for i := 0; i < 10; i++ {
		corr = append(corr, Correspondence{
			Px: rng.Float64() * 200,
			Py: rng.Float64() * 150,
			P:  mathx.Vec3{X: rng.Float64() * 10, Y: rng.Float64() * 3, Z: 5 + rng.Float64()*5},
		})
	}
	a := EstimateYaw(corr, intr, pos)
	rng.Shuffle(len(corr), func(i, j int) { corr[i], corr[j] = corr[j], corr[i] })
	b := EstimateYaw(corr, intr, pos)
	if math.Abs(a-b) > 1e-9 {
		t.Errorf("yaw depends on order: %v vs %v", a, b)
	}
}
