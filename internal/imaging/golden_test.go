package imaging

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// TestGaussianBlurGolden pins GaussianBlur bit for bit. The images narrower
// or shorter than the kernel take the border path for every pixel of the
// pass along their short side. The digests were recorded on the serial,
// column-walk implementation; a change in any pixel's summation order
// shows up here.
func TestGaussianBlurGolden(t *testing.T) {
	sigmas := []float64{0.5, 1.226, 1.6, 3.09, 6}
	cases := []struct {
		name string
		w, h int
		want string
	}{
		{"240x180", 240, 180, "9f122aa35afd112aec3b7d8e1169f2e9d82b1268a0b76b557ce473a104359abb"},
		{"97x61", 97, 61, "2339aa448932252c3d68e809dfd7a5723cd800ab02d70e939bab4730ef48aa8b"},
		{"17x13", 17, 13, "5f9d73b1faab10760494fe29925d891ed468c88b80a11286a427b7f4c30fe9b6"},
		{"5x40", 5, 40, "69d4e38d31d1609309eeb781e3eccfedc85ca9b35b5fd32761facf201d418ef8"},
		{"40x5", 40, 5, "53415b54f6f6b19783c3a5e0f853bf1e06776329ae44b3af22c2fc6541da831f"},
		{"1x1", 1, 1, "6be5469eee643725c1f0b4cdfe611e7c1d86d1fd9ac5dc30beecefd2c5f94aab"},
	}
	for i, c := range cases {
		img := RenderTexture(NoiseTexture{Seed: uint32(40 + i), Freq: 10, Octaves: 4, Gain: 1}, c.w, c.h, 2, 2)
		h := sha256.New()
		var buf [4]byte
		for _, s := range sigmas {
			out := GaussianBlur(img, s)
			if out.W != c.w || out.H != c.h {
				t.Fatalf("%s sigma %v: got %dx%d", c.name, s, out.W, out.H)
			}
			for _, v := range out.Pix {
				binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
				h.Write(buf[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
