package core

import (
	"runtime"
	"sort"
	"sync"
	"testing"

	"visualprint/internal/scene"
	"visualprint/internal/sift"
)

// venueKeypoints renders n 240x180 frames of the benchmark's venue (the
// Quick-scale office) and extracts each one's keypoints with the
// benchmark's detector settings: ~95 keypoints a frame.
func venueKeypoints(tb testing.TB, n int) [][]sift.Keypoint {
	tb.Helper()
	w := scene.Build(scene.VenueSpec{
		Name: "office", Width: 17.5, Depth: 8, Height: 3,
		Aisles: 1, PanelWidth: 2.5,
		UniqueFrac: 0.40, RepeatedFrac: 0.30,
		Seed: 1, TileSize: 0.6, AisleSpacing: 6,
		AisleUnique: 0.35, AisleRepeated: 0.40,
		Clutter: 3,
	})
	pois := w.POIsOfKind(scene.POIUnique)
	cfg := sift.DefaultConfig()
	cfg.ContrastThreshold = 0.02
	out := make([][]sift.Keypoint, n)
	for i := range out {
		cam := scene.CameraFacing(w, pois[(i*3)%len(pois)], 2.5+0.25*float64(i%3), 0.2*float64(i%3-1), -0.05, 240, 180)
		fr, err := scene.Render(w, cam)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = sift.Detect(fr.Image, cfg)
	}
	return out
}

// selectFixture returns a TestParams oracle holding the keypoints of five
// venue frames, every other one twice, and the 92 keypoints of a sixth
// frame to select from.
func selectFixture(tb testing.TB) (*Oracle, []sift.Keypoint) {
	tb.Helper()
	frames := venueKeypoints(tb, 6)
	o, err := New(TestParams())
	if err != nil {
		tb.Fatal(err)
	}
	query := frames[1]
	for i, kps := range append(frames[:1:1], frames[2:]...) {
		for range 1 + i%2 {
			for _, kp := range kps {
				if err := o.Insert(kp.Desc[:]); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	return o, query
}

// serialSelect is SelectUnique scored one keypoint after another.
func serialSelect(t *testing.T, o *Oracle, kps []sift.Keypoint, n int) []sift.Keypoint {
	t.Helper()
	us := make([]uint32, len(kps))
	idx := make([]int, len(kps))
	for i := range kps {
		u, err := o.Uniqueness(kps[i].Desc[:])
		if err != nil {
			t.Fatal(err)
		}
		us[i], idx[i] = u, i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := o.selectionKey(us[idx[a]]), o.selectionKey(us[idx[b]])
		if ka != kb {
			return ka < kb
		}
		return kps[idx[a]].Response > kps[idx[b]].Response
	})
	out := make([]sift.Keypoint, min(n, len(kps)))
	for i := range out {
		out[i] = kps[idx[i]]
	}
	return out
}

func equalKeypoints(a, b []sift.Keypoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSelectUniqueWorkerIndependent checks that the parallel scoring picks
// the same keypoints in the same order as a serial pass, on any core count
// and with other goroutines selecting at the same time.
func TestSelectUniqueWorkerIndependent(t *testing.T) {
	o, kps := selectFixture(t)
	if len(kps) < 64 {
		t.Fatalf("fixture frame has %d keypoints, want at least 64", len(kps))
	}
	want := serialSelect(t, o, kps, 64)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got, err := o.SelectUnique(kps, 64)
		if err != nil {
			t.Fatal(err)
		}
		if !equalKeypoints(got, want) {
			t.Errorf("GOMAXPROCS=%d: selection differs from the serial one", procs)
		}
	}
	var wg sync.WaitGroup
	errs := make([]string, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				got, err := o.SelectUnique(kps, 64)
				if err != nil {
					errs[g] = err.Error()
					return
				}
				if !equalKeypoints(got, want) {
					errs[g] = "selection differs from the serial one"
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, e := range errs {
		if e != "" {
			t.Errorf("concurrent caller %d: %s", g, e)
		}
	}
}

func TestSelectUniqueCount(t *testing.T) {
	o := newTestOracle(t)
	kps := make([]sift.Keypoint, 3)
	if sel, err := o.SelectUnique(kps, -1); err == nil {
		t.Errorf("n = -1: got %d keypoints and no error", len(sel))
	}
	sel, err := o.SelectUnique(kps, 0)
	if err != nil || len(sel) != 0 {
		t.Errorf("n = 0: got %d keypoints, err %v; want none", len(sel), err)
	}
	if sel, err := o.SelectUnique(nil, 5); err != nil || len(sel) != 0 {
		t.Errorf("no keypoints: got %d, err %v; want none", len(sel), err)
	}
}

func TestSelectUniqueDimensionMismatch(t *testing.T) {
	p := TestParams()
	p.LSH.Dim = 64
	o, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.SelectUnique(make([]sift.Keypoint, 2), 1); err == nil {
		t.Error("want an error for a 64-d oracle")
	}
}

// BenchmarkSelectUnique selects the benchmark's 64 of one venue frame's
// keypoints against a TestParams oracle, the client's filtering step.
func BenchmarkSelectUnique(b *testing.B) {
	o, kps := selectFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.SelectUnique(kps, 64); err != nil {
			b.Fatal(err)
		}
	}
}
