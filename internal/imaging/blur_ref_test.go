package imaging

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// referenceBlur is the per-pixel Gaussian blur GaussianBlur must match bit
// for bit: each output pixel of each pass is the float32 sum acc += v*k over
// the taps in ascending order, starting from zero, with clamped (replicate)
// border reads.
func referenceBlur(g *Gray, sigma float64) *Gray {
	k := gaussianKernel(sigma)
	if len(k) == 1 {
		return g.Clone()
	}
	radius := len(k) / 2
	tmp := NewGray(g.W, g.H)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			var acc float32
			for i, kv := range k {
				acc += g.At(x+i-radius, y) * kv
			}
			tmp.Pix[y*g.W+x] = acc
		}
	}
	out := NewGray(g.W, g.H)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			var acc float32
			for i, kv := range k {
				acc += tmp.At(x, y+i-radius) * kv
			}
			out.Pix[y*g.W+x] = acc
		}
	}
	return out
}

// TestGaussianBlurMatchesReference compares every pixel's bits with the
// per-pixel blur on random images: shapes narrower or shorter than the
// kernel, single rows and columns, and shapes large enough to be split into
// bands; sigmas from 0.3 to 6; GOMAXPROCS 1, 2 and 8; with and without a
// caller's scratch, which is left dirty between calls.
func TestGaussianBlurMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	shapes := [][2]int{{0, 0}, {0, 7}, {7, 0}, {1, 1}, {1, 37}, {37, 1}, {1, 200}, {200, 1}, {3, 3}, {5, 40}, {40, 5}, {13, 9}, {240, 180}, {257, 31}, {31, 257}}
	for range 8 {
		shapes = append(shapes, [2]int{1 + rng.Intn(120), 1 + rng.Intn(120)})
	}
	sigmas := []float64{0.3, 0.5, 0.8, 1.226, 1.6, 2.45, 3.09, 4.4, 6}
	type blurCase struct {
		img   *Gray
		sigma float64
		want  *Gray
	}
	var cases []blurCase
	for _, sh := range shapes {
		img := NewGray(sh[0], sh[1])
		for i := range img.Pix {
			img.Pix[i] = rng.Float32()*1.2 - 0.1
		}
		for _, s := range sigmas {
			cases = append(cases, blurCase{img, s, referenceBlur(img, s)})
		}
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			name := fmt.Sprintf("GOMAXPROCS=%d %dx%d sigma %v", procs, c.img.W, c.img.H, c.sigma)
			tmp := make([]float32, BlurScratchLen(c.img.W, c.img.H, c.sigma))
			for i := range tmp {
				tmp[i] = float32(math.NaN())
			}
			for _, got := range []*Gray{GaussianBlur(c.img, c.sigma), GaussianBlurBuf(c.img, c.sigma, tmp), GaussianBlurBuf(c.img, c.sigma, tmp)} {
				if err := sameBits(got, c.want); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
	}
}

func sameBits(got, want *Gray) error {
	if got.W != want.W || got.H != want.H {
		return fmt.Errorf("got %dx%d, want %dx%d", got.W, got.H, want.W, want.H)
	}
	for i, v := range got.Pix {
		if math.Float32bits(v) != math.Float32bits(want.Pix[i]) {
			return fmt.Errorf("pixel (%d, %d) = %v, want %v", i%got.W, i/got.W, v, want.Pix[i])
		}
	}
	return nil
}

// TestGaussianBlurBufScratchSuffices checks that a scratch of BlurScratchLen
// pixels leaves the output as GaussianBlurBuf's only allocations.
func TestGaussianBlurBufScratchSuffices(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	img := RenderTexture(NoiseTexture{Seed: 7, Freq: 10, Octaves: 4, Gain: 1}, 240, 180, 2, 2)
	tmp := make([]float32, BlurScratchLen(img.W, img.H, 3.09))
	withBuf := testing.AllocsPerRun(5, func() { GaussianBlurBuf(img, 3.09, tmp) })
	without := testing.AllocsPerRun(5, func() { GaussianBlurBuf(img, 3.09, nil) })
	if withBuf != without-1 {
		t.Errorf("allocations with scratch %v, without %v; want one fewer", withBuf, without)
	}
}

// BenchmarkGaussianBlur240x180 blurs a benchmark-sized frame at the
// pyramid's base sigma with a reused scratch, as buildPyramid does.
func BenchmarkGaussianBlur240x180(b *testing.B) {
	img := RenderTexture(NoiseTexture{Seed: 7, Freq: 10, Octaves: 4, Gain: 1}, 240, 180, 2, 2)
	tmp := make([]float32, BlurScratchLen(img.W, img.H, 1.6))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GaussianBlurBuf(img, 1.6, tmp)
	}
}
