package sift

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// gradientSpecials are the IEEE edge cases and range boundaries a gradient
// component is drawn from: ±0, the smallest and largest subnormals, ±Inf,
// NaN and ±MaxFloat64.
var gradientSpecials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), math.Float64frombits(0x800fffffffffffff),
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.MaxFloat64, -math.MaxFloat64,
}

// satanEdges are the |gy/gx| at which satan switches range, 0.66 and
// tan(3π/8), with their float64 neighbors.
var satanEdges = func() []float64 {
	var out []float64
	for _, e := range []float64{0.66, 2.41421356237309504880} {
		out = append(out, math.Nextafter(e, 0), e, math.Nextafter(e, 4))
	}
	return out
}()

// gradientPair draws one (gx, gy): mostly the difference of two float32
// pixels in [0, 1), as the detector makes them, some scaled by 1e-3; else
// an IEEE edge case in either component, a pair whose quotient is at a
// satan range edge, or a gx < 0 whose quotient underflows to ±0.
func gradientPair(rng *rand.Rand) (gx, gy float64) {
	diff := func() float64 { return float64(rng.Float32() - rng.Float32()) }
	switch rng.Intn(10) {
	case 0:
		return gradientSpecials[rng.Intn(len(gradientSpecials))], diff()
	case 1:
		return diff(), gradientSpecials[rng.Intn(len(gradientSpecials))]
	case 2:
		gx = diff()
		gy = gx * satanEdges[rng.Intn(len(satanEdges))]
		if rng.Intn(2) == 0 {
			gy = -gy
		}
		return gx, gy
	case 3:
		return -math.MaxFloat64 * rng.Float64(), math.SmallestNonzeroFloat64 * float64(1-2*rng.Intn(2))
	case 4:
		return diff() * 1e-3, diff() * 1e-3
	}
	return diff(), diff()
}

// checkGradients runs gradients and gradientsGeneric on the same input and
// compares every output's bits with each other and with the math calls.
func checkGradients(t *testing.T, gx, gy []float64, what string) {
	t.Helper()
	n := len(gx)
	mag, theta := make([]float64, n), make([]float64, n)
	gmag, gtheta := make([]float64, n), make([]float64, n)
	gradients(mag, theta, gx, gy)
	gradientsGeneric(gmag, gtheta, gx, gy)
	for i := range gx {
		x, y := gx[i], gy[i]
		wantMag, wantTheta := math.Sqrt(x*x+y*y), math.Atan2(y, x)
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"mag", mag[i], gmag[i]}, {"theta", theta[i], gtheta[i]},
			{"generic mag", gmag[i], wantMag}, {"generic theta", gtheta[i], wantTheta},
		} {
			if math.Float64bits(c.got) != math.Float64bits(c.want) {
				t.Fatalf("%s: pixel %d of %d, gx %v (%#016x) gy %v (%#016x): %s %v (%#016x), want %v (%#016x)",
					what, i, n, x, math.Float64bits(x), y, math.Float64bits(y),
					c.name, c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want))
			}
		}
	}
}

// TestGradientsMatchGeneric compares every output's bits from gradients
// (the SSE2 kernel on amd64) with gradientsGeneric and with math.Sqrt and
// math.Atan2: every row length 0..81 with the slices starting at offsets
// 0..3 of their buffers (so the two-lane loads see both alignments and an
// odd tail), over pixel differences, IEEE edge cases, satan's range edges
// and gx < 0 with a quotient at ±0; then every pair of edge cases.
func TestGradientsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 0; n <= 81; n++ {
		for off := 0; off < 4; off++ {
			gx := make([]float64, off+n)[off:]
			gy := make([]float64, (off+1)%4+n)[(off+1)%4:]
			for i := range gx {
				gx[i], gy[i] = gradientPair(rng)
			}
			checkGradients(t, gx, gy, fmt.Sprintf("n %d offset %d", n, off))
		}
	}
	var gx, gy []float64
	edges := append(append([]float64{1, -1, 0.5, -3}, gradientSpecials...), satanEdges...)
	for _, x := range edges {
		for _, y := range edges {
			gx, gy = append(gx, x), append(gy, y)
		}
	}
	checkGradients(t, gx, gy, "edge pairs")
	checkGradients(t, gx[1:], gy[1:], "edge pairs shifted")
}

// TestGradientsShortSlicePanics pins the bounds contract the kernel relies
// on: mag, theta or gy shorter than gx panics in Go instead of being
// written or read past its end.
func TestGradientsShortSlicePanics(t *testing.T) {
	for short := range 3 {
		t.Run(fmt.Sprintf("slice %d short", short), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("gradients with a short slice did not panic")
				}
			}()
			s := [3][]float64{make([]float64, 8), make([]float64, 8), make([]float64, 8)}
			s[short] = s[short][:7]
			gradients(s[0], s[1], make([]float64, 8), s[2])
		})
	}
}

// FuzzGradients holds gradients to gradientsGeneric and the math calls on
// arbitrary float64 bits, eight bytes each of gx then gy per pixel.
func FuzzGradients(f *testing.F) {
	f.Add([]byte{})
	seed := make([]byte, 0, 16*len(gradientSpecials))
	for i, x := range gradientSpecials {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(x))
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(satanEdges[i%len(satanEdges)]))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, b []byte) {
		n := len(b) / 16
		gx, gy := make([]float64, n), make([]float64, n)
		for i := range n {
			gx[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[16*i:]))
			gy[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[16*i+8:]))
		}
		checkGradients(t, gx, gy, "fuzz")
	})
}

// BenchmarkGradients times one describe-sized row of pixel differences.
func BenchmarkGradients(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var r gradRow
	r.n = maxWindow
	for i := range r.n {
		r.gx[i], r.gy[i] = float64(rng.Float32()-rng.Float32()), float64(rng.Float32()-rng.Float32())
	}
	for _, c := range []struct {
		name string
		fn   func(mag, theta, gx, gy []float64)
	}{{"asm", gradients}, {"generic", gradientsGeneric}} {
		b.Run(c.name, func(b *testing.B) {
			for range b.N {
				c.fn(r.mag[:r.n], r.theta[:r.n], r.gx[:r.n], r.gy[:r.n])
			}
		})
	}
}
