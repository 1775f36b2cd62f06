package codec

import (
	"bytes"
	"math"
	"testing"

	"visualprint/internal/imaging"
	"visualprint/internal/sift"
)

func testImage(seed uint32) *imaging.Gray {
	return imaging.RenderTexture(
		imaging.NoiseTexture{Seed: seed, Freq: 9, Octaves: 4, Gain: 1}, 160, 120, 2, 1.5)
}

func TestEncodingString(t *testing.T) {
	cases := map[Encoding]string{
		EncodingH264: "H264", EncodingJPEG: "JPEG",
		EncodingPNG: "PNG", EncodingRAW: "RAW", Encoding(9): "Encoding(9)",
	}
	for e, want := range cases {
		if e.String() != want {
			t.Errorf("%d.String() = %q", int(e), e.String())
		}
	}
}

func TestRawRoundTrip(t *testing.T) {
	img := testImage(1)
	data, err := EncodeFrame(img, EncodingRAW, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 8+img.W*img.H {
		t.Errorf("RAW size = %d", len(data))
	}
	back, err := DecodeFrame(data, EncodingRAW)
	if err != nil {
		t.Fatal(err)
	}
	for i := range img.Pix {
		if math.Abs(float64(back.Pix[i]-img.Pix[i])) > 1.0/255+1e-6 {
			t.Fatalf("pixel %d: %v vs %v", i, back.Pix[i], img.Pix[i])
		}
	}
}

func TestRawDecodeRejectsCorrupt(t *testing.T) {
	if _, err := DecodeFrame([]byte{1, 2, 3}, EncodingRAW); err == nil {
		t.Error("short frame accepted")
	}
	img := testImage(2)
	data, _ := EncodeFrame(img, EncodingRAW, 0)
	if _, err := DecodeFrame(data[:len(data)-5], EncodingRAW); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestPNGLossless(t *testing.T) {
	img := testImage(3)
	data, err := EncodeFrame(img, EncodingPNG, 0)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeFrame(data, EncodingPNG)
	if err != nil {
		t.Fatal(err)
	}
	// PNG is lossless at 8-bit: round trip within quantization error only.
	for i := range img.Pix {
		if math.Abs(float64(back.Pix[i]-img.Pix[i])) > 1.0/255+1e-6 {
			t.Fatalf("PNG not lossless at pixel %d", i)
		}
	}
}

func TestJPEGSmallerThanPNG(t *testing.T) {
	img := testImage(4)
	pngData, _ := EncodeFrame(img, EncodingPNG, 0)
	jpegData, _ := EncodeFrame(img, EncodingJPEG, 0)
	if len(jpegData) >= len(pngData) {
		t.Errorf("JPEG (%d B) should be smaller than PNG (%d B)", len(jpegData), len(pngData))
	}
}

func TestEncodingSizeOrdering(t *testing.T) {
	// Figure 2's vertical ordering at a fixed uplink: H264 < JPEG < PNG < RAW.
	img := testImage(5)
	var sizes [4]int
	for _, e := range []Encoding{EncodingH264, EncodingJPEG, EncodingPNG, EncodingRAW} {
		data, err := EncodeFrame(img, e, 0)
		if err != nil {
			t.Fatal(err)
		}
		sizes[e] = len(data)
	}
	if !(sizes[EncodingH264] < sizes[EncodingJPEG] &&
		sizes[EncodingJPEG] < sizes[EncodingPNG] &&
		sizes[EncodingPNG] < sizes[EncodingRAW]) {
		t.Errorf("size ordering violated: %v", sizes)
	}
}

func TestJPEGDegradesUsableKeypoints(t *testing.T) {
	// Figure 3's effect: SIFT extraction efficacy drops under lossy
	// compression. On synthetic textures raw counts barely move (JPEG
	// blocking artifacts add as many spurious keypoints as the quantization
	// removes), so we measure what the paper's matching pipeline actually
	// depends on: keypoints that survive compression with a matching
	// descriptor at the same location. PNG, being lossless, keeps ~100%.
	cfg := sift.DefaultConfig()
	cfg.ContrastThreshold = 0.01
	img := imaging.RenderTexture(
		imaging.NoiseTexture{Seed: 6, Freq: 14, Octaves: 5, Gain: 1}, 256, 192, 3, 2.2)
	base := sift.Detect(img, cfg)
	if len(base) < 100 {
		t.Fatalf("only %d baseline keypoints", len(base))
	}
	stable := func(enc Encoding, quality int) int {
		data, err := EncodeFrame(img, enc, quality)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeFrame(data, enc)
		if err != nil {
			t.Fatal(err)
		}
		kps := sift.Detect(dec, cfg)
		n := 0
		for i := range kps {
			for j := range base {
				dx, dy := kps[i].X-base[j].X, kps[i].Y-base[j].Y
				if dx*dx+dy*dy < 9 && kps[i].Desc.DistSq(&base[j].Desc) < 40000 {
					n++
					break
				}
			}
		}
		return n
	}
	pngStable := stable(EncodingPNG, 0)
	jpegStable := stable(EncodingJPEG, 10)
	if pngStable < len(base)*95/100 {
		t.Errorf("PNG stable keypoints %d/%d — lossless path broken", pngStable, len(base))
	}
	if jpegStable >= pngStable*9/10 {
		t.Errorf("JPEG stable %d not clearly below PNG stable %d", jpegStable, pngStable)
	}
}

func TestH264FrameSizeModel(t *testing.T) {
	// Calibration point: 1080p at 10 FPS must be ~2 Mbps.
	size := H264FrameSize(1920, 1080)
	mbps := float64(size*8*10) / 1e6
	if mbps < 1.8 || mbps > 2.2 {
		t.Errorf("modeled H264 rate %.2f Mbps at 10 FPS, want ~2", mbps)
	}
	data, err := EncodeFrame(testImage(7), EncodingH264, 0)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != H264FrameSize(160, 120) {
		t.Errorf("placeholder size %d != model %d", len(data), H264FrameSize(160, 120))
	}
	if _, err := DecodeFrame(data, EncodingH264); err == nil {
		t.Error("H264 placeholder should not decode")
	}
}

func TestMarshalKeypointsRoundTrip(t *testing.T) {
	kps := sift.Detect(testImage(8), sift.Config{ContrastThreshold: 0.03})
	if len(kps) == 0 {
		t.Skip("no keypoints")
	}
	data := MarshalKeypoints(kps)
	if len(data) != 10+len(kps)*KeypointWireSize {
		t.Errorf("marshaled size = %d", len(data))
	}
	back, err := UnmarshalKeypoints(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(kps) {
		t.Fatalf("count %d != %d", len(back), len(kps))
	}
	for i := range kps {
		if back[i].Desc != kps[i].Desc {
			t.Fatalf("descriptor %d corrupted", i)
		}
		if math.Abs(back[i].X-kps[i].X) > 1e-3 || math.Abs(back[i].Y-kps[i].Y) > 1e-3 {
			t.Fatalf("coordinates %d corrupted", i)
		}
	}
}

func TestMarshalKeypointsEmpty(t *testing.T) {
	data := MarshalKeypoints(nil)
	back, err := UnmarshalKeypoints(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 0 {
		t.Errorf("got %d keypoints", len(back))
	}
}

func TestUnmarshalKeypointsRejectsCorrupt(t *testing.T) {
	if _, err := UnmarshalKeypoints([]byte("short")); err == nil {
		t.Error("short payload accepted")
	}
	kps := make([]sift.Keypoint, 3)
	data := MarshalKeypoints(kps)
	if _, err := UnmarshalKeypoints(data[:len(data)-10]); err == nil {
		t.Error("truncated payload accepted")
	}
	data[0] ^= 0xff
	if _, err := UnmarshalKeypoints(data); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestGzipRoundTrip(t *testing.T) {
	orig := bytes.Repeat([]byte("visualprint "), 1000)
	z, err := Gzip(orig)
	if err != nil {
		t.Fatal(err)
	}
	if len(z) >= len(orig) {
		t.Errorf("repetitive data did not compress: %d >= %d", len(z), len(orig))
	}
	back, err := Gunzip(z)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, orig) {
		t.Error("gzip round trip corrupted data")
	}
}

func TestGunzipRejectsGarbage(t *testing.T) {
	if _, err := Gunzip([]byte("not gzip")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestFeatureToImageSizeRatio(t *testing.T) {
	// Figure 5's premise: all keypoints serialized take space comparable to
	// (typically more than) the compressed image itself.
	img := imaging.RenderTexture(
		imaging.NoiseTexture{Seed: 11, Freq: 12, Octaves: 4, Gain: 1}, 256, 192, 3, 2.2)
	kps := sift.Detect(img, sift.Config{ContrastThreshold: 0.03})
	if len(kps) < 50 {
		t.Skipf("only %d keypoints", len(kps))
	}
	kpBytes := len(MarshalKeypoints(kps))
	pngData, _ := EncodeFrame(img, EncodingPNG, 0)
	ratio := float64(kpBytes) / float64(len(pngData))
	if ratio < 0.2 {
		t.Errorf("feature/image ratio %.2f unexpectedly small (kp=%d png=%d)", ratio, kpBytes, len(pngData))
	}
}
