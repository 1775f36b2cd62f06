package sift

// gradients sets mag[i] = math.Sqrt(gx[i]*gx[i] + gy[i]*gy[i]) and
// theta[i] = math.Atan2(gy[i], gx[i]) for every i < len(gx). Pairs of
// pixels run in the SSE2 kernel gradients2 (gradients_amd64.s), each lane
// with the float64 operations of Go's math.Sqrt and pure-Go math.Atan2 in
// the same order, so the bits are those of gradientsGeneric. The lanes the
// kernel leaves to Go (atan2's special cases: a zero or non-finite input)
// and an odd last pixel go through gradientsGeneric. A mag, theta or gy
// shorter than gx panics in Go instead of being written or read past its
// end.
func gradients(mag, theta, gx, gy []float64) {
	n := len(gx)
	if len(mag) < n || len(theta) < n || len(gy) < n {
		panic("sift: gradients: mag, theta or gy shorter than gx")
	}
	even := n &^ 1
	if gradients2(mag[:even], theta[:even], gx[:even], gy[:even]) {
		for i, x := range gx[:even] {
			// x-x is 0 for a finite x and NaN for ±Inf and NaN.
			if y := gy[i]; x == 0 || y == 0 || x-x != 0 || y-y != 0 {
				gradientsGeneric(mag[i:i+1], theta[i:i+1], gx[i:i+1], gy[i:i+1])
			}
		}
	}
	gradientsGeneric(mag[even:], theta[even:], gx[even:], gy[even:])
}

// gradients2 fills mag and theta for the first len(gx) pixels, an even
// count, and reports whether any of them is a lane it leaves to Go, whose
// outputs it has written but not to the bits of the Go calls.
//
//go:noescape
func gradients2(mag, theta, gx, gy []float64) (special bool)
