package sift

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"sync"
	"testing"

	"visualprint/internal/imaging"
	"visualprint/internal/scene"
)

// goldenVenue is the benchmark's venue: the Quick-scale office with a fixed
// texture seed.
func goldenVenue() scene.VenueSpec {
	return scene.VenueSpec{
		Name: "office", Width: 17.5, Depth: 8, Height: 3,
		Aisles: 1, PanelWidth: 2.5,
		UniqueFrac: 0.40, RepeatedFrac: 0.30,
		Seed: 1, TileSize: 0.6, AisleSpacing: 6,
		AisleUnique: 0.35, AisleRepeated: 0.40,
		Clutter: 3,
	}
}

// venueFrames renders n 240x180 frames of the benchmark venue, each facing
// one of its unique POIs from a distance and yaw that vary with the index.
func venueFrames(t testing.TB, n int) []*imaging.Gray {
	t.Helper()
	w := scene.Build(goldenVenue())
	pois := w.POIsOfKind(scene.POIUnique)
	if len(pois) == 0 {
		t.Fatal("venue has no unique POI")
	}
	out := make([]*imaging.Gray, n)
	for i := range out {
		cam := scene.CameraFacing(w, pois[(i*5)%len(pois)], 2.5+0.25*float64(i%3), 0.2*float64(i%3-1), -0.05, 240, 180)
		fr, err := scene.Render(w, cam)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = fr.Image
	}
	return out
}

// benchConfig is the detector configuration the benchmark extracts with.
func benchConfig() Config {
	cfg := DefaultConfig()
	cfg.ContrastThreshold = 0.02
	return cfg
}

// keypointDigest hashes every bit of a keypoint list, in order.
func keypointDigest(kps []Keypoint) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(kps)))
	for _, kp := range kps {
		for _, v := range []float64{kp.X, kp.Y, kp.Scale, kp.Orientation, kp.Response} {
			put(math.Float64bits(v))
		}
		h.Write(kp.Desc[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fineNoise renders noise at a fixed feature size of ~40 pixels per texture
// unit, so that small images still carry keypoints.
func fineNoise(w, h int, seed uint32) *imaging.Gray {
	return imaging.RenderTexture(imaging.NoiseTexture{Seed: seed, Freq: 10, Octaves: 4, Gain: 1}, w, h, float64(w)/40, float64(h)/40)
}

// TestDetectGolden pins Detect's output bit for bit: keypoint positions,
// scales, orientations, responses and descriptors, in order. The digests
// were recorded on the serial detector; any reordering of a float
// operation in the pyramid, the orientation histogram or the descriptor
// shows up here.
//
// They hold only on a host with FMA: Go's amd64 math.Exp takes a fused
// multiply-add path when the CPU has AVX and FMA (math/exp_amd64.go), and
// the digests were recorded on such a host. With GODEBUG=cpu.fma=off,
// venue1 and noise160x120 come out different.
func TestDetectGolden(t *testing.T) {
	frames := venueFrames(t, 4)
	capped := benchConfig()
	capped.MaxKeypoints = 40
	lowe := Config{ContrastThreshold: 0.03}
	cases := []struct {
		name string
		img  *imaging.Gray
		cfg  Config
		want string
	}{
		{"venue0", frames[0], benchConfig(), "30391eac238bef8a745590a0129ac3cdf6a50ba77802623b794c95d4a83c4540"},
		{"venue1", frames[1], benchConfig(), "026f56198dc5a5801078ca1c6a15b7bd7c83c538460d8a6399cea880f7071267"},
		{"venue2", frames[2], lowe, "3d374eba7b7e2974459bd2ff5feb5af54701e130104f6969f0edf06db687ca47"},
		{"venue3-capped", frames[3], capped, "623931bdc1a777aec54d9c28ec5a9ec7591f4e2a0813d0909c0cbb6d0a120578"},
		{"noise97x61", noiseImage(97, 61, 11), lowe, "80801fb4c3a6f06c471f3e80adf37e64b220db2344ac84c632328eed20ff61d0"},
		{"noise45x31", fineNoise(45, 31, 13), benchConfig(), "a2b06ae98f6f1cdbef911e88fe9173062df679d35040ecf09ac1c14f2e01ef30"},
		{"noise17x13", fineNoise(17, 13, 13), benchConfig(), "ff316ba05401ae89e8216912fac858d4c1b3bfb3a9732ee0ebb5daaffd6f0695"},
		{"noise160x120", noiseImage(160, 120, 4), lowe, "9995f4fe73aca3eae5040740d5c872ee8893bf94d615280e6bb5f841e9b2f156"},
	}
	for _, c := range cases {
		kps := Detect(c.img, c.cfg)
		if got := keypointDigest(kps); got != c.want {
			t.Errorf("%s: %d keypoints, digest %s, want %s", c.name, len(kps), got, c.want)
		}
	}
}

// TestDetectWorkerIndependent checks that Detect's output does not depend on
// how many cores it runs on, nor on other goroutines calling it at the same
// time.
func TestDetectWorkerIndependent(t *testing.T) {
	imgs := append(venueFrames(t, 2), noiseImage(97, 61, 11))
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	serial := make([]string, len(imgs))
	for i, img := range imgs {
		serial[i] = keypointDigest(Detect(img, benchConfig()))
	}
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		for i, img := range imgs {
			if got := keypointDigest(Detect(img, benchConfig())); got != serial[i] {
				t.Errorf("GOMAXPROCS=%d image %d: digest %s, serial %s", procs, i, got, serial[i])
			}
		}
	}
	var wg sync.WaitGroup
	got := make([][]string, 4)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, img := range imgs {
				got[g] = append(got[g], keypointDigest(Detect(img, benchConfig())))
			}
		}()
	}
	wg.Wait()
	for g, ds := range got {
		for i, d := range ds {
			if d != serial[i] {
				t.Errorf("concurrent caller %d image %d: digest %s, serial %s", g, i, d, serial[i])
			}
		}
	}
}

func BenchmarkDetect240x180(b *testing.B) {
	g := venueFrames(b, 1)[0]
	cfg := benchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Detect(g, cfg)
	}
}
