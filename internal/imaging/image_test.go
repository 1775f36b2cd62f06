package imaging

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAtClampsBorders(t *testing.T) {
	g := NewGray(3, 2)
	g.Set(0, 0, 0.5)
	g.Set(2, 1, 0.9)
	if g.At(-5, -5) != 0.5 {
		t.Errorf("At(-5,-5) = %v, want clamp to (0,0)", g.At(-5, -5))
	}
	if g.At(10, 10) != 0.9 {
		t.Errorf("At(10,10) = %v, want clamp to (2,1)", g.At(10, 10))
	}
}

func TestSetOutOfBoundsIgnored(t *testing.T) {
	g := NewGray(2, 2)
	g.Set(-1, 0, 1)
	g.Set(0, -1, 1)
	g.Set(2, 0, 1)
	g.Set(0, 2, 1)
	for _, p := range g.Pix {
		if p != 0 {
			t.Fatal("out-of-bounds Set modified the image")
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	g := NewGray(2, 2)
	g.Set(1, 1, 0.7)
	c := g.Clone()
	c.Set(1, 1, 0.1)
	if g.At(1, 1) != 0.7 {
		t.Error("Clone shares pixel storage")
	}
}

func TestBilinearAtGridPoints(t *testing.T) {
	g := NewGray(3, 3)
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			g.Set(x, y, float32(y*3+x))
		}
	}
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			if got := g.Bilinear(float64(x), float64(y)); got != float32(y*3+x) {
				t.Errorf("Bilinear(%d,%d) = %v", x, y, got)
			}
		}
	}
	// Halfway between 0 and 1 should be 0.5.
	if got := g.Bilinear(0.5, 0); got != 0.5 {
		t.Errorf("Bilinear(0.5,0) = %v, want 0.5", got)
	}
}

func TestGaussianBlurPreservesConstant(t *testing.T) {
	g := NewGray(16, 16)
	for i := range g.Pix {
		g.Pix[i] = 0.42
	}
	b := GaussianBlur(g, 2.0)
	for i, p := range b.Pix {
		if math.Abs(float64(p)-0.42) > 1e-5 {
			t.Fatalf("pixel %d = %v, want 0.42", i, p)
		}
	}
}

func TestGaussianBlurPreservesMean(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := NewGray(32, 32)
	var sum float64
	for i := range g.Pix {
		g.Pix[i] = rng.Float32()
		sum += float64(g.Pix[i])
	}
	b := GaussianBlur(g, 1.5)
	var bsum float64
	for _, p := range b.Pix {
		bsum += float64(p)
	}
	// Mean is preserved up to border effects; tolerate 2%.
	if math.Abs(bsum-sum)/sum > 0.02 {
		t.Errorf("mean drifted: %v -> %v", sum, bsum)
	}
}

func TestGaussianBlurReducesVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := NewGray(64, 64)
	for i := range g.Pix {
		g.Pix[i] = rng.Float32()
	}
	variance := func(img *Gray) float64 {
		var m float64
		for _, p := range img.Pix {
			m += float64(p)
		}
		m /= float64(len(img.Pix))
		var s float64
		for _, p := range img.Pix {
			d := float64(p) - m
			s += d * d
		}
		return s / float64(len(img.Pix))
	}
	if variance(GaussianBlur(g, 2)) >= variance(g) {
		t.Error("blur did not reduce variance of white noise")
	}
}

func TestGaussianBlurZeroSigma(t *testing.T) {
	g := NewGray(4, 4)
	g.Set(2, 2, 1)
	b := GaussianBlur(g, 0)
	for i := range g.Pix {
		if b.Pix[i] != g.Pix[i] {
			t.Fatal("sigma=0 should be identity")
		}
	}
}

func TestDownsampleHalves(t *testing.T) {
	g := NewGray(8, 6)
	d := Downsample(g)
	if d.W != 4 || d.H != 3 {
		t.Errorf("Downsample dims = %dx%d", d.W, d.H)
	}
	// 1x1 floor.
	tiny := Downsample(NewGray(1, 1))
	if tiny.W != 1 || tiny.H != 1 {
		t.Errorf("tiny downsample dims = %dx%d", tiny.W, tiny.H)
	}
}

func TestResize(t *testing.T) {
	g := NewGray(10, 10)
	for i := range g.Pix {
		g.Pix[i] = 0.3
	}
	r, err := Resize(g, 7, 13)
	if err != nil {
		t.Fatal(err)
	}
	if r.W != 7 || r.H != 13 {
		t.Errorf("dims = %dx%d", r.W, r.H)
	}
	for _, p := range r.Pix {
		if math.Abs(float64(p)-0.3) > 1e-6 {
			t.Fatalf("constant image changed under resize: %v", p)
		}
	}
	if _, err := Resize(g, 0, 5); err == nil {
		t.Error("want error for zero target")
	}
}

func TestImageRoundTrip(t *testing.T) {
	g := NewGray(5, 4)
	for i := range g.Pix {
		g.Pix[i] = float32(i) / float32(len(g.Pix))
	}
	back := FromImage(g.ToImage())
	if back.W != g.W || back.H != g.H {
		t.Fatalf("dims changed: %dx%d", back.W, back.H)
	}
	for i := range g.Pix {
		if math.Abs(float64(back.Pix[i]-g.Pix[i])) > 1.0/255+1e-6 {
			t.Fatalf("pixel %d: %v vs %v", i, back.Pix[i], g.Pix[i])
		}
	}
}

func TestToImageClamps(t *testing.T) {
	g := NewGray(2, 1)
	g.Set(0, 0, -3)
	g.Set(1, 0, 7)
	img := g.ToImage()
	if img.GrayAt(0, 0).Y != 0 || img.GrayAt(1, 0).Y != 255 {
		t.Errorf("clamping failed: %v %v", img.GrayAt(0, 0), img.GrayAt(1, 0))
	}
}

func TestBilinearWithinRange(t *testing.T) {
	g := NewGray(6, 6)
	rng := rand.New(rand.NewSource(2))
	for i := range g.Pix {
		g.Pix[i] = rng.Float32()
	}
	f := func(x, y float64) bool {
		v := g.Bilinear(math.Mod(math.Abs(x), 6), math.Mod(math.Abs(y), 6))
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
