// Package imaging provides the grayscale image substrate for VisualPrint:
// a float32 image type, separable Gaussian filtering, resampling, and
// conversions to the standard library image types used by the PNG/JPEG
// codecs. SIFT (internal/sift) and the procedural scene renderer
// (internal/scene) are built on this package.
package imaging

import (
	"errors"
	"image"
	"image/color"
	"math"
	"runtime"
	"sync"
)

// Gray is a single-channel float32 image with intensities nominally in
// [0, 1]. Pixels are stored row-major.
type Gray struct {
	W, H int
	Pix  []float32
}

// NewGray allocates a zeroed W x H image.
func NewGray(w, h int) *Gray {
	return &Gray{W: w, H: h, Pix: make([]float32, w*h)}
}

// At returns the pixel at (x, y). Coordinates outside the image are clamped
// to the border (replicate padding), which is the boundary handling used by
// the Gaussian pyramid.
func (g *Gray) At(x, y int) float32 {
	if x < 0 {
		x = 0
	} else if x >= g.W {
		x = g.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= g.H {
		y = g.H - 1
	}
	return g.Pix[y*g.W+x]
}

// Set writes the pixel at (x, y); out-of-bounds writes are ignored.
func (g *Gray) Set(x, y int, v float32) {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return
	}
	g.Pix[y*g.W+x] = v
}

// Clone returns a deep copy of g.
func (g *Gray) Clone() *Gray {
	out := NewGray(g.W, g.H)
	copy(out.Pix, g.Pix)
	return out
}

// Bilinear samples the image at fractional coordinates with bilinear
// interpolation and border clamping.
func (g *Gray) Bilinear(x, y float64) float32 {
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	fx := float32(x - float64(x0))
	fy := float32(y - float64(y0))
	v00 := g.At(x0, y0)
	v10 := g.At(x0+1, y0)
	v01 := g.At(x0, y0+1)
	v11 := g.At(x0+1, y0+1)
	top := v00 + (v10-v00)*fx
	bot := v01 + (v11-v01)*fx
	return top + (bot-top)*fy
}

// ToImage converts g to an 8-bit standard-library grayscale image, clamping
// intensities to [0, 1].
func (g *Gray) ToImage() *image.Gray {
	img := image.NewGray(image.Rect(0, 0, g.W, g.H))
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			v := g.Pix[y*g.W+x]
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			img.SetGray(x, y, color.Gray{Y: uint8(v*255 + 0.5)})
		}
	}
	return img
}

// FromImage converts any standard-library image to a Gray, using the
// luminance of each pixel.
func FromImage(src image.Image) *Gray {
	b := src.Bounds()
	g := NewGray(b.Dx(), b.Dy())
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			c := color.GrayModel.Convert(src.At(b.Min.X+x, b.Min.Y+y)).(color.Gray)
			g.Pix[y*g.W+x] = float32(c.Y) / 255
		}
	}
	return g
}

// kernelRadius is the conventional Gaussian kernel radius, ceil(3*sigma), 0
// for sigma <= 0.
func kernelRadius(sigma float64) int {
	if sigma <= 0 {
		return 0
	}
	return int(math.Ceil(3 * sigma))
}

// gaussianKernel returns a normalized 1-D Gaussian kernel of radius
// kernelRadius(sigma).
func gaussianKernel(sigma float64) []float32 {
	if sigma <= 0 {
		return []float32{1}
	}
	radius := kernelRadius(sigma)
	k := make([]float32, 2*radius+1)
	sum := float32(0)
	inv := -1 / (2 * sigma * sigma)
	for i := -radius; i <= radius; i++ {
		v := float32(math.Exp(float64(i*i) * inv))
		k[i+radius] = v
		sum += v
	}
	for i := range k {
		k[i] /= sum
	}
	return k
}

// GaussianBlur returns a new image: g convolved with a Gaussian of the given
// standard deviation, computed separably (horizontal then vertical pass)
// with replicate border handling. A sigma <= 0 returns a copy of g.
func GaussianBlur(g *Gray, sigma float64) *Gray {
	return GaussianBlurBuf(g, sigma, nil)
}

// GaussianBlurBuf is GaussianBlur with its intermediate rows in tmp: when
// tmp holds at least BlurScratchLen(W, H, sigma) pixels nothing but the
// output is allocated (otherwise it allocates a scratch), so a caller
// blurring many images allocates only the outputs. tmp is overwritten and
// not retained.
//
// Both passes are split into row bands over GOMAXPROCS goroutines and run
// tap-major: a sweep adds four taps' worth of whole rows into a zeroed output
// row. The horizontal pass reads its taps from a copy of the source row
// padded with radius replicated border pixels on each side, so every pixel,
// border ones included, takes the same path. Each output pixel is still the
// float32 sum acc += v*k over the taps in ascending order, starting from
// zero, whichever band, sweep or pass order computes it, so the result does
// not depend on the core count and matches a per-pixel clamped loop bit for
// bit.
func GaussianBlurBuf(g *Gray, sigma float64, tmp []float32) *Gray {
	return gaussianBlurBuf(g, sigma, tmp, false)
}

// gaussianBlurBuf is GaussianBlurBuf, run on addTapsGeneric instead of
// addTaps when generic is set: the seam through which tests and benchmarks
// compare the whole blur on the two tap sweeps. The choice is a branch at
// each call, not a function value, so the row closures stay on the stack.
func gaussianBlurBuf(g *Gray, sigma float64, tmp []float32, generic bool) *Gray {
	k := gaussianKernel(sigma)
	if len(k) == 1 || g.W == 0 {
		return g.Clone()
	}
	w, h, radius := g.W, g.H, len(k)/2
	bands := bandCount(w*h*len(k), h)
	padW := w + 2*radius
	if need := w*h + bands*padW; len(tmp) < need {
		tmp = make([]float32, need)
	}
	mid, pads := tmp[:w*h], tmp[w*h:]
	out := NewGray(w, h)
	rowBands(bands, h, func(b, y0, y1 int) {
		pad := pads[b*padW : (b+1)*padW]
		row := func(i int) []float32 { return pad[i:] }
		for y := y0; y < y1; y++ {
			src := g.Pix[y*w : (y+1)*w]
			for i := range radius {
				pad[i], pad[radius+w+i] = src[0], src[w-1]
			}
			copy(pad[radius:], src)
			dst := mid[y*w : (y+1)*w]
			clear(dst)
			if generic {
				addTapsGeneric(dst, k, row)
			} else {
				addTaps(dst, k, row)
			}
		}
	})
	rowBands(bands, h, func(_, y0, y1 int) {
		for y := y0; y < y1; y++ {
			row := func(i int) []float32 {
				sy := min(max(y+i-radius, 0), h-1)
				return mid[sy*w : (sy+1)*w]
			}
			if generic {
				addTapsGeneric(out.Pix[y*w:(y+1)*w], k, row)
			} else {
				addTaps(out.Pix[y*w:(y+1)*w], k, row)
			}
		}
	})
	return out
}

// BlurScratchLen is the scratch length with which GaussianBlurBuf allocates
// only its output for a w x h image and any sigma up to maxSigma, at the
// current GOMAXPROCS: the intermediate image plus one padded row per band.
func BlurScratchLen(w, h int, maxSigma float64) int {
	return w*h + runtime.GOMAXPROCS(0)*(w+2*kernelRadius(maxSigma))
}

// addTapsGeneric is addTaps in portable Go: the sweep off amd64 and the
// reference the assembly is compared against. Go evaluates
// d + a*k0 + b*k1 left to right and amd64 (GOAMD64=v1) does not fuse the
// multiply-add, so each pixel gets the same float32 additions as one tap
// per sweep.
func addTapsGeneric(dst, k []float32, row func(i int) []float32) {
	i := 0
	for ; i+4 <= len(k); i += 4 {
		s0 := row(i)[:len(dst)]
		s1 := row(i + 1)[:len(dst)]
		s2 := row(i + 2)[:len(dst)]
		s3 := row(i + 3)[:len(dst)]
		k0, k1, k2, k3 := k[i], k[i+1], k[i+2], k[i+3]
		for x := range dst {
			dst[x] = dst[x] + s0[x]*k0 + s1[x]*k1 + s2[x]*k2 + s3[x]*k3
		}
	}
	for ; i < len(k); i++ {
		s, kv := row(i)[:len(dst)], k[i]
		for x := range dst {
			dst[x] = dst[x] + s[x]*kv
		}
	}
}

// minBandWork is the fewest multiply-adds worth handing to another
// goroutine: below it, starting and joining the goroutine costs more than
// the work it takes off the caller.
const minBandWork = 1 << 15

// bandCount is the number of row bands a pass of the given multiply-adds
// over h rows is split into: GOMAXPROCS, fewer when a band would do less
// than minBandWork.
func bandCount(work, h int) int {
	return max(min(runtime.GOMAXPROCS(0), h, work/minBandWork), 1)
}

// rowBands calls fn(b, y0, y1) for each band b of [0, h) cut into bands
// contiguous row ranges, one per goroutine, the caller's included.
func rowBands(bands, h int, fn func(b, y0, y1 int)) {
	if bands <= 1 {
		fn(0, 0, h)
		return
	}
	var wg sync.WaitGroup
	for b := 1; b < bands; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(b, h*b/bands, h*(b+1)/bands)
		}()
	}
	fn(0, 0, h/bands)
	wg.Wait()
}

// Downsample returns g at half resolution by taking every other pixel. This
// matches the octave subsampling in the SIFT Gaussian pyramid (the input is
// assumed pre-blurred).
func Downsample(g *Gray) *Gray {
	w, h := g.W/2, g.H/2
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	out := NewGray(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out.Pix[y*w+x] = g.At(2*x, 2*y)
		}
	}
	return out
}

// Resize returns g resampled to w x h with bilinear interpolation.
func Resize(g *Gray, w, h int) (*Gray, error) {
	if w <= 0 || h <= 0 {
		return nil, errors.New("imaging: Resize target must be positive")
	}
	out := NewGray(w, h)
	sx := float64(g.W) / float64(w)
	sy := float64(g.H) / float64(h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out.Pix[y*w+x] = g.Bilinear((float64(x)+0.5)*sx-0.5, (float64(y)+0.5)*sy-0.5)
		}
	}
	return out, nil
}
