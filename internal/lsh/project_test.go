package lsh

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// projValue draws a coefficient or vector element: one of the IEEE edge
// cases (±0, the smallest and largest subnormals, ±Inf, ±MaxFloat32) a
// quarter of the time, otherwise a value in [-2, 2).
func projValue(rng *rand.Rand) float32 {
	if rng.Intn(4) == 0 {
		specials := []float32{
			0, float32(math.Copysign(0, -1)),
			math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
			math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff),
			float32(math.Inf(1)), float32(math.Inf(-1)),
			math.MaxFloat32, -math.MaxFloat32,
		}
		return specials[rng.Intn(len(specials))]
	}
	return rng.Float32()*4 - 2
}

// TestProjectMatchesGeneric compares the bits of all 8 sums of project (the
// SSE2 kernel on amd64) with projectGeneric: every dimension count 0..300,
// the coefficient block and the vector starting at every float offset 0..15
// of their buffers (so the 4-lane loads see every alignment), and
// coefficients and elements drawn with IEEE edge cases, whose NaNs
// (Inf·0, Inf−Inf) must come out the same too.
func TestProjectMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for n := 0; n <= 300; n++ {
		for off := 0; off < 16; off++ {
			cbuf := make([]float32, off+lanes*(n+1)) // room for the pointer conversion at n = 0
			for i := range cbuf {
				cbuf[i] = projValue(rng)
			}
			blk := unsafe.Slice((*[lanes]float32)(unsafe.Pointer(&cbuf[off])), n)
			vbuf := make([]float32, (off*5+3)%16+n)
			vec := vbuf[len(vbuf)-n:]
			for d := range vec {
				vec[d] = projValue(rng)
			}
			var got, want [lanes]float32
			project(&got, blk, vec)
			projectGeneric(&want, blk, vec)
			for r := range got {
				if math.Float32bits(got[r]) != math.Float32bits(want[r]) {
					t.Fatalf("n %d offset %d: row %d = %v (%#08x), generic %v (%#08x)",
						n, off, r, got[r], math.Float32bits(got[r]), want[r], math.Float32bits(want[r]))
				}
			}
		}
	}
}

// TestBucketVecIntoShortVecPanics pins the bounds contract the assembly
// relies on: a vector shorter than Dim panics in Go before the kernel reads
// it.
func TestBucketVecIntoShortVecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BucketVecInto with a short vector did not panic")
		}
	}()
	h, _ := NewHasher(DefaultParams())
	h.BucketVecInto(make([]float32, 127), 0, make([]int32, 7))
}
