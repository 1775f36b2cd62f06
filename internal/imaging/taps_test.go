package imaging

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// tapValue draws a pixel or tap: one of the IEEE edge cases (±0, the
// smallest and largest subnormals, ±Inf, ±MaxFloat32) a quarter of the time,
// otherwise a value in [-2, 2).
func tapValue(rng *rand.Rand) float32 {
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

// TestAddTapsMatchesGeneric compares every pixel's bits after addTaps (the
// SSE2 sweeps on amd64) with addTapsGeneric: every row length 0..300, dst
// and rows starting at every offset 0..15 of their buffers (so the four-lane
// loads see every alignment), rows longer than dst, 1 to 9 taps (none, one
// or two four-tap sweeps, then 0–3 single taps), and pixels and taps
// drawn with IEEE edge cases, whose NaNs (Inf·0, Inf−Inf) must come out the
// same too.
func TestAddTapsMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for n := 0; n <= 300; n++ {
		for off := 0; off < 16; off++ {
			taps := 1 + (n+off)%9
			k := make([]float32, taps)
			rows := make([][]float32, taps)
			for i := range k {
				k[i] = tapValue(rng)
				buf := make([]float32, (off+3*i)%16+n+i)
				rows[i] = buf[len(buf)-n-i:]
				for x := range rows[i] {
					rows[i][x] = tapValue(rng)
				}
			}
			row := func(i int) []float32 { return rows[i] }
			got, want := make([]float32, off+n)[off:], make([]float32, n)
			for x := range got {
				got[x] = tapValue(rng)
			}
			copy(want, got)
			addTaps(got, k, row)
			addTapsGeneric(want, k, row)
			for x := range got {
				if math.Float32bits(got[x]) != math.Float32bits(want[x]) {
					t.Fatalf("n %d offset %d, %d taps: pixel %d = %v (%#08x), generic %v (%#08x)",
						n, off, taps, x, got[x], math.Float32bits(got[x]), want[x], math.Float32bits(want[x]))
				}
			}
		}
	}
}

// TestAddTapsShortRowPanics pins the bounds contract the assembly relies
// on: a row shorter than dst panics in Go, in a four-tap sweep and in a
// single-tap one, instead of being read past its end.
func TestAddTapsShortRowPanics(t *testing.T) {
	for _, c := range []struct{ taps, short int }{{4, 3}, {5, 4}} {
		t.Run(fmt.Sprintf("%d taps, tap %d short", c.taps, c.short), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("addTaps with a short row did not panic")
				}
			}()
			addTaps(make([]float32, 8), make([]float32, c.taps), func(i int) []float32 {
				if i == c.short {
					return make([]float32, 7)
				}
				return make([]float32, 8)
			})
		})
	}
}
