// Package sift implements the Scale-Invariant Feature Transform keypoint
// detector and descriptor (Lowe, ICCV 1999) used by VisualPrint as its
// visual feature. The implementation follows the classical pipeline:
//
//  1. Gaussian scale-space pyramid, difference-of-Gaussian (DoG) images.
//  2. Scale-space extrema detection with contrast and edge rejection.
//  3. Orientation assignment from a 36-bin gradient histogram.
//  4. A 4x4x8 = 128-bin gradient descriptor, normalized, clamped at 0.2,
//     renormalized, and quantized to one byte per dimension — the integer
//     descriptor format the paper's LSH/Bloom pipeline requires ("each
//     dimension being a one-byte integer value").
//
// The descriptor statistics (a few dimensions carrying most of the nearest-
// neighbor distance, Figure 6) emerge from this construction.
package sift

import (
	"math"
	"slices"
	"sort"
	"sync"

	"visualprint/internal/dist"
	"visualprint/internal/imaging"
	"visualprint/internal/par"
)

// DescriptorSize is the dimensionality of a SIFT descriptor.
const DescriptorSize = 128

// Descriptor is a quantized 128-dimensional SIFT feature vector.
type Descriptor [DescriptorSize]byte

// Float returns the descriptor as a float64 slice, for distance and PCA
// computations.
func (d *Descriptor) Float() []float64 {
	out := make([]float64, DescriptorSize)
	for i, v := range d {
		out[i] = float64(v)
	}
	return out
}

// DistSq returns the squared Euclidean distance between two descriptors.
func (d *Descriptor) DistSq(e *Descriptor) int {
	return dist.Sq(d[:], e[:])
}

// Keypoint is a detected, described interest point. X and Y are pixel
// coordinates in the original image; Scale is the detection scale (the
// radius drawn in the paper's Figure 4); Orientation is the dominant
// gradient direction in radians.
type Keypoint struct {
	X, Y        float64
	Scale       float64
	Orientation float64
	Response    float64 // |DoG| value at the extremum; larger is stronger
	Desc        Descriptor
}

// The detector's fixed shape, Lowe's values: extrema are detected at
// scalesPerOctave scales per octave (s in Lowe's paper; s+3 Gaussian images
// are built per octave), the first pyramid level is blurred to baseSigma,
// and extrema whose principal-curvature ratio exceeds edgeRatio r
// (trace^2/det > (r+1)^2/r) are rejected as edge responses.
const (
	scalesPerOctave = 3
	baseSigma       = 1.6
	edgeRatio       = 10.0
)

// Config holds the detector's settable parameters; start from
// DefaultConfig.
type Config struct {
	// ContrastThreshold rejects low-contrast extrema (applied to |DoG|
	// with image intensities in [0, 1]).
	ContrastThreshold float64
	// MaxKeypoints caps the output, keeping the strongest responses.
	// Zero means no cap.
	MaxKeypoints int
}

// DefaultConfig returns the parameterization the map and the queries are
// both extracted with: contrast threshold 0.02, below Lowe's 0.03, and no
// keypoint cap. A map and its queries must extract with the same threshold,
// so every client starts here.
func DefaultConfig() Config {
	return Config{ContrastThreshold: 0.02}
}

// Detect runs the full SIFT pipeline on img and returns described
// keypoints, strongest first.
//
// The pyramid is blurred on its own goroutine, which hands over each
// Gaussian level as soon as it is built. Each DoG level gets a goroutine as
// soon as the Gaussian level above it is in, and runs that level's extrema,
// orientations and descriptors while later levels are still being blurred
// and other levels described; the per-candidate orientation and descriptor
// work runs on GOMAXPROCS goroutines. Each candidate's peaks and each
// keypoint's descriptor are computed by one goroutine from read-only
// pyramid levels and written to a slot fixed by the serial order, and the
// levels' keypoints are joined in (octave, level) order, so the list handed
// to the sort, and hence the result, is the same bits on any core count.
func Detect(img *imaging.Gray, cfg Config) []Keypoint {
	const s = scalesPerOctave
	nOct := octaveCount(img.W, img.H)
	// Room for every level: the builder never blocks, and it has returned
	// or is returning once the loop below has taken the last one.
	levels := make(chan *imaging.Gray, nOct*(s+3))
	go buildPyramid(img, nOct, levels)
	found := make([][]Keypoint, nOct*s) // per (octave, DoG level)
	var wg sync.WaitGroup
	for o := range nOct {
		gauss := make([]*imaging.Gray, 0, s+3)
		for l := 1; l <= s; l++ {
			// DoG level l spans Gaussian levels l-1..l+2 with its neighbors.
			for len(gauss) < l+3 {
				gauss = append(gauss, <-levels)
			}
			// gauss is passed by value: the loop appends to it while the
			// level's goroutine reads its first l+3 elements, which no
			// later append moves or writes (its capacity is s+3).
			wg.Add(1)
			go func(gauss []*imaging.Gray) {
				defer wg.Done()
				found[o*s+l-1] = detectLevel(gauss, o, l, cfg)
			}(gauss)
		}
	}
	wg.Wait()
	out := slices.Concat(found...)
	sort.Slice(out, func(i, j int) bool { return out[i].Response > out[j].Response })
	if cfg.MaxKeypoints > 0 && len(out) > cfg.MaxKeypoints {
		out = out[:cfg.MaxKeypoints]
	}
	return out
}

// octaveCount is the number of octaves the pyramid of a w×h image has: one
// per halving that leaves both sides at least 16 pixels, at least one.
// (Each octave's successor starts at least 8 pixels a side, so no octave
// is cut for being too small.)
func octaveCount(w, h int) int {
	n := 0
	for ; w >= 16 && h >= 16; w, h = w/2, h/2 {
		n++
	}
	return max(n, 1)
}

// buildPyramid blurs img into nOct octaves of scalesPerOctave+3 Gaussian
// levels and sends each level on levels as soon as it is built, octave by
// octave and level by level. levels must have room for all of them. The
// DoG images are not stored: the detector reads each DoG pixel as the
// difference of the two Gaussian levels it spans, the same float32
// subtraction that would have filled it.
func buildPyramid(img *imaging.Gray, nOct int, levels chan<- *imaging.Gray) {
	const s = scalesPerOctave
	k := math.Pow(2, 1/float64(s))
	// sigmaDelta(l) blurs level l-1 of an octave into level l. It grows
	// with l, so the widest blur of the call is the base one or level
	// s+2's; octaves only shrink, so scratch sized for the input and that
	// sigma serves every blur.
	sigmaDelta := func(l int) float64 {
		sigmaTotal := baseSigma * math.Pow(k, float64(l))
		sigmaPrev := baseSigma * math.Pow(k, float64(l-1))
		return math.Sqrt(sigmaTotal*sigmaTotal - sigmaPrev*sigmaPrev)
	}
	tmp := make([]float32, imaging.BlurScratchLen(img.W, img.H, max(baseSigma, sigmaDelta(s+2))))
	level := imaging.GaussianBlurBuf(img, baseSigma, tmp) // assume nominal input blur 0
	for o := range nOct {
		levels <- level
		var next *imaging.Gray
		for l := 1; l < s+3; l++ {
			level = imaging.GaussianBlurBuf(level, sigmaDelta(l), tmp)
			levels <- level
			if l == s {
				next = level
			}
		}
		if o+1 < nOct {
			// The next octave starts from the level with 2x the base sigma.
			level = imaging.Downsample(next)
		}
	}
}

// candidate is an extremum located in octave coordinates.
type candidate struct {
	x, y     float64 // coordinates within the octave
	sigma    float64 // scale within the octave
	response float64
}

// detectLevel returns the described keypoints of DoG level l of octave o,
// whose Gaussian levels 0..l+2 are gauss, in the order of their extrema.
func detectLevel(gauss []*imaging.Gray, o, l int, cfg Config) []Keypoint {
	cands := extrema(gauss, l, cfg)
	img := gauss[l+1] // the Gaussian level nearest the extrema's scale
	peaks := make([]oriPeaks, len(cands))
	par.For(len(cands), func(i int) { peaks[i] = orientations(img, cands[i]) })
	first := make([]int, len(cands)+1) // first[i]: slot of candidate i's first keypoint
	for i, pk := range peaks {
		first[i+1] = first[i] + pk.n
	}
	octScale := math.Pow(2, float64(o)) // back to image coordinates
	out := make([]Keypoint, first[len(cands)])
	par.For(len(cands), func(i int) {
		c := cands[i]
		for j, ori := range peaks[i].theta[:peaks[i].n] {
			kp := &out[first[i]+j]
			*kp = Keypoint{
				X:           c.x * octScale,
				Y:           c.y * octScale,
				Scale:       c.sigma * octScale,
				Orientation: ori,
				Response:    c.response,
			}
			describe(img, c, ori, &kp.Desc)
		}
	})
	return out
}

// extrema returns the extrema of DoG level l of an octave whose Gaussian
// levels 0..l+2 are gauss, row by row.
func extrema(gauss []*imaging.Gray, l int, cfg Config) []candidate {
	var out []candidate
	k := math.Pow(2, 1/float64(scalesPerOctave))
	sigma := baseSigma * math.Pow(k, float64(l))
	edgeLimit := (edgeRatio + 1) * (edgeRatio + 1) / edgeRatio
	// DoG level l is gauss[l+1] - gauss[l].
	d0, d1, d2 := dog{gauss[l], gauss[l-1]}, dog{gauss[l+1], gauss[l]}, dog{gauss[l+2], gauss[l+1]}
	w, h := gauss[l].W, gauss[l].H
	for y := 1; y < h-1; y++ {
		for x := 1; x < w-1; x++ {
			v := d1.at(x, y)
			av := math.Abs(float64(v))
			if av < cfg.ContrastThreshold {
				continue
			}
			if !isExtremum(d0, d1, d2, x, y, v) {
				continue
			}
			// Edge rejection: 2x2 Hessian of the DoG.
			dxx := float64(d1.at(x+1, y) + d1.at(x-1, y) - 2*v)
			dyy := float64(d1.at(x, y+1) + d1.at(x, y-1) - 2*v)
			dxy := float64(d1.at(x+1, y+1)-d1.at(x-1, y+1)-d1.at(x+1, y-1)+d1.at(x-1, y-1)) / 4
			tr := dxx + dyy
			det := dxx*dyy - dxy*dxy
			if det <= 0 || tr*tr/det > edgeLimit {
				continue
			}
			// Subpixel refinement in x and y via 1-D quadratic fits.
			ox := quadOffset(float64(d1.at(x-1, y)), float64(v), float64(d1.at(x+1, y)))
			oy := quadOffset(float64(d1.at(x, y-1)), float64(v), float64(d1.at(x, y+1)))
			out = append(out, candidate{
				x:        float64(x) + ox,
				y:        float64(y) + oy,
				sigma:    sigma,
				response: av,
			})
		}
	}
	return out
}

// dog is one difference-of-Gaussian image, hi - lo, read pixel by pixel.
// Callers stay one pixel inside the border.
type dog struct{ hi, lo *imaging.Gray }

func (d dog) at(x, y int) float32 {
	i := y*d.hi.W + x
	return d.hi.Pix[i] - d.lo.Pix[i]
}

// quadOffset returns the sub-sample offset of the vertex of the parabola
// through (-1, a), (0, b), (1, c), clamped to [-0.5, 0.5].
func quadOffset(a, b, c float64) float64 {
	den := a - 2*b + c
	if den == 0 {
		return 0
	}
	off := 0.5 * (a - c) / den
	if off > 0.5 {
		off = 0.5
	} else if off < -0.5 {
		off = -0.5
	}
	return off
}

func isExtremum(d0, d1, d2 dog, x, y int, v float32) bool {
	if v > 0 {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if d0.at(x+dx, y+dy) >= v || d2.at(x+dx, y+dy) >= v {
					return false
				}
				if (dx != 0 || dy != 0) && d1.at(x+dx, y+dy) >= v {
					return false
				}
			}
		}
		return true
	}
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if d0.at(x+dx, y+dy) <= v || d2.at(x+dx, y+dy) <= v {
				return false
			}
			if (dx != 0 || dy != 0) && d1.at(x+dx, y+dy) <= v {
				return false
			}
		}
	}
	return true
}

const (
	oriBins  = 36
	maxPeaks = 4 // orientations kept per candidate
)

// oriPeaks is a candidate's orientations, theta[:n], n >= 1.
type oriPeaks struct {
	theta [maxPeaks]float64
	n     int
}

// orientations computes the dominant gradient orientation(s) of a candidate
// in its Gaussian level img from a Gaussian-weighted 36-bin histogram;
// peaks within 80% of the maximum each produce a keypoint, per Lowe, in bin
// order up to maxPeaks. A candidate without a peak gets orientation 0.
func orientations(img *imaging.Gray, c candidate) oriPeaks {
	var hist [oriBins]float64
	sigmaW := 1.5 * c.sigma
	radius := int(math.Round(3 * sigmaW))
	cx, cy := int(math.Round(c.x)), int(math.Round(c.y))
	inv2s2 := -1 / (2 * sigmaW * sigmaW)
	// The window is clipped to the pixels whose gradient stays inside the
	// image, visited in the same order as the full window, a row at a time.
	var g gradRow
	x0, x1 := max(-radius, 1-cx), min(radius, img.W-2-cx)
	for dy := max(-radius, 1-cy); dy <= min(radius, img.H-2-cy); dy++ {
		g.n = 0
		for dx := x0; dx <= x1; dx++ {
			g.add(img, (cy+dy)*img.W+cx+dx)
		}
		g.solve()
		for j, theta := range g.theta[:g.n] {
			dx := x0 + j
			w := math.Exp(float64(dx*dx+dy*dy) * inv2s2)
			bin := int(math.Floor((theta + math.Pi) / (2 * math.Pi) * oriBins))
			if bin >= oriBins {
				bin = oriBins - 1
			} else if bin < 0 {
				bin = 0
			}
			hist[bin] += w * g.mag[j]
		}
	}
	// Smooth the histogram twice with a [1 1 1]/3 box filter.
	for pass := 0; pass < 2; pass++ {
		var sm [oriBins]float64
		for i := 0; i < oriBins; i++ {
			sm[i] = (hist[(i+oriBins-1)%oriBins] + hist[i] + hist[(i+1)%oriBins]) / 3
		}
		hist = sm
	}
	maxV := 0.0
	for _, h := range hist {
		if h > maxV {
			maxV = h
		}
	}
	var out oriPeaks
	for i := 0; i < oriBins && maxV > 0; i++ {
		h := hist[i]
		prev := hist[(i+oriBins-1)%oriBins]
		next := hist[(i+1)%oriBins]
		if h < 0.8*maxV || h < prev || h < next {
			continue
		}
		// Parabolic peak interpolation.
		off := quadOffset(prev, h, next)
		out.theta[out.n] = (float64(i)+0.5+off)/oriBins*2*math.Pi - math.Pi
		if out.n++; out.n == maxPeaks {
			break
		}
	}
	out.n = max(out.n, 1) // no peak: orientation 0
	return out
}

const (
	descGrid = 4 // 4x4 spatial bins
	descOri  = 8 // 8 orientation bins
)

// describe fills desc with the 128-dimensional gradient histogram of the
// region around c in its Gaussian level img, rotated to the given
// orientation, then normalized, clamped at 0.2, renormalized, and quantized
// to bytes.
func describe(img *imaging.Gray, c candidate, orientation float64, desc *Descriptor) {
	var raw [descGrid * descGrid * descOri]float64

	histWidth := 3 * c.sigma // pixels per spatial bin
	radius := int(math.Round(histWidth * math.Sqrt2 * (descGrid + 1) / 2))
	if radius < 1 {
		radius = 1
	}
	cosT, sinT := math.Cos(orientation), math.Sin(orientation)
	cx, cy := int(math.Round(c.x)), int(math.Round(c.y))
	binCenter := float64(descGrid)/2 - 0.5

	// As in orientations, the window is clipped to the image's interior and
	// taken a row at a time: the pixels that land in a bin first, then their
	// gradients together, then their histogram updates in window order.
	var g gradRow
	var rxs, rys [maxWindow]float64 // the kept pixels' rotated offsets
	for dy := max(-radius, 1-cy); dy <= min(radius, img.H-2-cy); dy++ {
		g.n = 0
		for dx := max(-radius, 1-cx); dx <= min(radius, img.W-2-cx); dx++ {
			// Rotate the offset into the keypoint frame.
			rx := (cosT*float64(dx) + sinT*float64(dy)) / histWidth
			ry := (-sinT*float64(dx) + cosT*float64(dy)) / histWidth
			bx := rx + binCenter
			by := ry + binCenter
			if bx <= -1 || bx >= descGrid || by <= -1 || by >= descGrid {
				continue
			}
			rxs[g.n], rys[g.n] = rx, ry
			g.add(img, (cy+dy)*img.W+cx+dx)
		}
		g.solve()
		for j, theta := range g.theta[:g.n] {
			rx, ry := rxs[j], rys[j]
			rot := theta - orientation
			for rot < 0 {
				rot += 2 * math.Pi
			}
			for rot >= 2*math.Pi {
				rot -= 2 * math.Pi
			}
			bo := rot / (2 * math.Pi) * descOri
			w := math.Exp(-(rx*rx + ry*ry) / (0.5 * descGrid * descGrid))
			trilinearAdd(raw[:], rx+binCenter, ry+binCenter, bo, w*g.mag[j])
		}
	}

	// Normalize, clamp, renormalize — Lowe's illumination invariance.
	norm := 0.0
	for _, v := range raw {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	if norm > 0 {
		for i := range raw {
			raw[i] /= norm
			if raw[i] > 0.2 {
				raw[i] = 0.2
			}
		}
		norm = 0
		for _, v := range raw {
			norm += v * v
		}
		norm = math.Sqrt(norm)
	}
	for i := range raw {
		v := 0.0
		if norm > 0 {
			v = raw[i] / norm * 512
		}
		if v > 255 {
			v = 255
		}
		desc[i] = byte(v)
	}
}

// maxWindow bounds the pixels of one window row. describe's radius,
// round(3σ·√2·(descGrid+1)/2), is 34 at the largest candidate scale,
// σ = baseSigma·2 = 3.2; orientations' round(4.5σ) is 14.
const maxWindow = 2*34 + 1

// gradRow batches one window row's central differences, pixel by pixel in
// the window's order, so gradients turns them into magnitudes and
// orientations together.
type gradRow struct {
	n                  int
	gx, gy, mag, theta [maxWindow]float64
}

// add appends the central differences at pixel i of img. Callers keep the
// pixel one inside the border, so no neighbor needs clamping.
func (r *gradRow) add(img *imaging.Gray, i int) {
	r.gx[r.n] = float64(img.Pix[i+1] - img.Pix[i-1])
	r.gy[r.n] = float64(img.Pix[i+img.W] - img.Pix[i-img.W])
	r.n++
}

// solve fills mag[:n] and theta[:n]: each pixel's gradient magnitude and
// its orientation in radians, in (-pi, pi].
func (r *gradRow) solve() {
	gradients(r.mag[:r.n], r.theta[:r.n], r.gx[:r.n], r.gy[:r.n])
}

// gradientsGeneric is gradients in portable Go: the kernel off amd64, the
// fallback for the lanes the amd64 kernel leaves to Go, and the reference
// the kernel is compared against.
func gradientsGeneric(mag, theta, gx, gy []float64) {
	for i, x := range gx {
		y := gy[i]
		mag[i] = math.Sqrt(x*x + y*y)
		theta[i] = math.Atan2(y, x)
	}
}

// trilinearAdd distributes weight w into the 3-D histogram at fractional
// coordinates (bx, by, bo), with wraparound on the orientation axis. Each
// axis splits its weight as 1-f to the lower bin and f to the upper one.
func trilinearAdd(hist []float64, bx, by, bo, w float64) {
	x0 := int(math.Floor(bx))
	y0 := int(math.Floor(by))
	o0 := int(math.Floor(bo))
	fx := [2]float64{1 - (bx - float64(x0)), bx - float64(x0)}
	fy := [2]float64{1 - (by - float64(y0)), by - float64(y0)}
	fo := [2]float64{1 - (bo - float64(o0)), bo - float64(o0)}
	for dx := 0; dx <= 1; dx++ {
		xb := x0 + dx
		if xb < 0 || xb >= descGrid {
			continue
		}
		wx := w * fx[dx]
		for dy := 0; dy <= 1; dy++ {
			yb := y0 + dy
			if yb < 0 || yb >= descGrid {
				continue
			}
			wy := wx * fy[dy]
			for do := 0; do <= 1; do++ {
				ob := (o0 + do) % descOri
				if ob < 0 {
					ob += descOri
				}
				hist[(yb*descGrid+xb)*descOri+ob] += wy * fo[do]
			}
		}
	}
}
