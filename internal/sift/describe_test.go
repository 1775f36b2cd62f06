package sift

import (
	"math"
	"math/rand"
	"testing"

	"visualprint/internal/imaging"
)

func TestGradientOnRamp(t *testing.T) {
	// Horizontal ramp: gradient points in +x with magnitude ~ slope*2/2.
	g := imaging.NewGray(8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			g.Set(x, y, float32(x)*0.1)
		}
	}
	var r gradRow
	r.add(g, 4*g.W+4)
	r.solve()
	mag, theta := r.mag[0], r.theta[0]
	if math.Abs(mag-0.2) > 1e-5 {
		t.Errorf("mag = %v, want 0.2", mag)
	}
	if math.Abs(theta) > 1e-6 {
		t.Errorf("theta = %v, want 0", theta)
	}
}

// referenceTrilinearAdd is trilinearAdd with each axis weight written as
// (1-f)*(1-d) + f*d for the bin offset d in {0, 1}.
func referenceTrilinearAdd(hist []float64, bx, by, bo, w float64) {
	x0 := int(math.Floor(bx))
	y0 := int(math.Floor(by))
	o0 := int(math.Floor(bo))
	fx := bx - float64(x0)
	fy := by - float64(y0)
	fo := bo - float64(o0)
	for dx := 0; dx <= 1; dx++ {
		xb := x0 + dx
		if xb < 0 || xb >= descGrid {
			continue
		}
		wx := w * ((1-fx)*(1-float64(dx)) + fx*float64(dx))
		for dy := 0; dy <= 1; dy++ {
			yb := y0 + dy
			if yb < 0 || yb >= descGrid {
				continue
			}
			wy := wx * ((1-fy)*(1-float64(dy)) + fy*float64(dy))
			for do := 0; do <= 1; do++ {
				ob := (o0 + do) % descOri
				if ob < 0 {
					ob += descOri
				}
				wo := wy * ((1-fo)*(1-float64(do)) + fo*float64(do))
				hist[(yb*descGrid+xb)*descOri+ob] += wo
			}
		}
	}
}

// TestTrilinearAddMatchesReference accumulates the same samples with both
// forms and compares every bin's bits. The samples cover describe's whole
// spatial range (-1, 4), bin edges, values a hair off an integer (whose
// fraction rounds to 0 or 1), and orientations below 0 and past 8 bins.
func TestTrilinearAddMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	edges := []float64{-1 + 1e-12, -0.5, -1e-300, 0, 1e-300, 0.5, 1, 2 - 1e-16, 2, 3, 3.5, math.Nextafter(4, 0)}
	orients := []float64{-16.25, -8, -1e-300, -1, 0, 1e-300, 0.999, 7, math.Nextafter(8, 0), 8, 9.5, 15.75}
	pick := func(fixed []float64, lo, hi float64) float64 {
		if rng.Intn(3) == 0 {
			return fixed[rng.Intn(len(fixed))]
		}
		return lo + (hi-lo)*rng.Float64()
	}
	for trial := range 200 {
		var got, want [descGrid * descGrid * descOri]float64
		for range 64 {
			bx, by := pick(edges, -1, 4), pick(edges, -1, 4)
			bo := pick(orients, -16, 16)
			w := rng.ExpFloat64()
			trilinearAdd(got[:], bx, by, bo, w)
			referenceTrilinearAdd(want[:], bx, by, bo, w)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d bin %d: %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}
