// Package imaging provides the grayscale image substrate for VisualPrint:
// a float32 image type, separable Gaussian filtering, resampling, image
// gradients, and conversions to the standard library image types used by the
// PNG/JPEG codecs. SIFT (internal/sift) and the procedural scene renderer
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

// gaussianKernel returns a normalized 1-D Gaussian kernel with the
// conventional radius ceil(3*sigma).
func gaussianKernel(sigma float64) []float32 {
	if sigma <= 0 {
		return []float32{1}
	}
	radius := int(math.Ceil(3 * sigma))
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

// GaussianBlurBuf is GaussianBlur with the horizontal pass written to tmp
// when tmp holds at least W*H pixels (otherwise it allocates one), so a
// caller blurring many images allocates only the outputs. tmp is
// overwritten and not retained.
//
// Both passes are split into row bands over GOMAXPROCS goroutines. Every
// output pixel is the same float32 sum as in a serial pass: the taps of one
// pixel are added in ascending order, starting from zero, whichever band or
// pass order computes it, so the result does not depend on the core count.
func GaussianBlurBuf(g *Gray, sigma float64, tmp []float32) *Gray {
	k := gaussianKernel(sigma)
	if len(k) == 1 {
		return g.Clone()
	}
	w, h, radius := g.W, g.H, len(k)/2
	if len(tmp) < w*h {
		tmp = make([]float32, w*h)
	}
	tmp = tmp[:w*h]
	out := NewGray(w, h)
	rowBands(w*h*len(k), h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			row := g.Pix[y*w : (y+1)*w]
			dst := tmp[y*w : (y+1)*w]
			for x := range dst {
				var acc float32
				if x >= radius && x < w-radius {
					// Fast interior path: no bounds checks on neighbors.
					base := row[x-radius : x-radius+len(k)]
					for i, kv := range k {
						acc += base[i] * kv
					}
				} else {
					for i, kv := range k {
						acc += g.At(x+i-radius, y) * kv
					}
				}
				dst[x] = acc
			}
		}
	})
	// The vertical pass runs row-wise: each tap adds one whole source row
	// into the zeroed output row, which keeps both rows in cache and gives
	// every pixel the same sequence of additions as a per-pixel column sum.
	rowBands(w*h*len(k), h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			dst := out.Pix[y*w : (y+1)*w]
			for i, kv := range k {
				sy := min(max(y+i-radius, 0), h-1)
				src := tmp[sy*w : (sy+1)*w]
				for x, v := range src {
					dst[x] += v * kv
				}
			}
		}
	})
	return out
}

// minBandWork is the fewest multiply-adds worth handing to another
// goroutine: below it, starting and joining the goroutine costs more than
// the work it takes off the caller.
const minBandWork = 1 << 15

// rowBands calls fn over [0, h) cut into contiguous row bands, one per
// goroutine, the caller's included: GOMAXPROCS of them, fewer when the pass
// does less than minBandWork multiply-adds per band.
func rowBands(work, h int, fn func(y0, y1 int)) {
	bands := min(runtime.GOMAXPROCS(0), h, work/minBandWork)
	if bands <= 1 {
		fn(0, h)
		return
	}
	var wg sync.WaitGroup
	for b := 1; b < bands; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(h*b/bands, h*(b+1)/bands)
		}()
	}
	fn(0, h/bands)
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

// Gradient computes central-difference image gradients, returning the
// magnitude and orientation (radians, in (-pi, pi]) at (x, y).
func Gradient(g *Gray, x, y int) (mag, theta float64) {
	dx := float64(g.At(x+1, y) - g.At(x-1, y))
	dy := float64(g.At(x, y+1) - g.At(x, y-1))
	return math.Sqrt(dx*dx + dy*dy), math.Atan2(dy, dx)
}
