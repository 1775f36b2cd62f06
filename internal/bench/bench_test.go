package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// microScale keeps bench-package unit tests fast: one tiny venue pass.
func microScale() Scale {
	return Scale{
		Name: "micro", Scenes: 6, Distractors: 10, QueriesPerScene: 1,
		ImgW: 140, ImgH: 105, VenueShrink: 0.2, LocalizationQueries: 3,
	}
}

func TestExperimentSeriesHelpers(t *testing.T) {
	e := &Experiment{ID: "x", YLabel: "CDF"}
	e.AddSeries("a", []float64{1, 2}, []float64{0.5, 1})
	e.AddCDF("b", []float64{3, 1, 2})
	names := e.Series()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Series = %v", names)
	}
	pts := e.SeriesPoints("b")
	if len(pts) != 3 || pts[0].X != 1 || pts[2].X != 3 {
		t.Errorf("SeriesPoints(b) = %v", pts)
	}
	if m := e.MedianOf("b"); m != 2 {
		t.Errorf("MedianOf = %v", m)
	}
	e.Notef("n=%d", 3)
	if len(e.Notes) != 1 || e.Notes[0] != "n=3" {
		t.Errorf("Notes = %v", e.Notes)
	}
}

func TestMedianOfEmptySeries(t *testing.T) {
	e := &Experiment{}
	if e.MedianOf("missing") != 0 {
		t.Error("missing series should give 0")
	}
}

func TestVenueSpecsShrink(t *testing.T) {
	small := venueSpecs(Scale{VenueShrink: 0.2})
	full := venueSpecs(Scale{VenueShrink: 1})
	if len(small) != 3 || len(full) != 3 {
		t.Fatalf("want 3 venues")
	}
	for i := range small {
		if small[i].Width >= full[i].Width {
			t.Errorf("venue %d not shrunk: %v vs %v", i, small[i].Width, full[i].Width)
		}
		if small[i].Width < 12 || small[i].Depth < 8 {
			t.Errorf("venue %d below floor: %+v", i, small[i])
		}
	}
	// Full scale keeps the paper's dimensions.
	if full[0].Width != 50 || full[2].Width != 80 {
		t.Errorf("full venues resized: %v, %v", full[0].Width, full[2].Width)
	}
}

func TestGetCorpusCachesAndLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus build is slow")
	}
	sc := microScale()
	c1, err := GetCorpus(sc)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := GetCorpus(sc)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("corpus not cached")
	}
	if len(c1.DB.Descs) != len(c1.DB.Labels) || len(c1.DB.Descs) == 0 {
		t.Fatalf("db malformed: %d descs, %d labels", len(c1.DB.Descs), len(c1.DB.Labels))
	}
	// Scene labels < Scenes; distractor labels >= Scenes.
	seenScene, seenDistractor := false, false
	for _, l := range c1.DB.Labels {
		if l < sc.Scenes {
			seenScene = true
		} else {
			seenDistractor = true
		}
	}
	if !seenScene || !seenDistractor {
		t.Error("db missing scene or distractor descriptors")
	}
	if len(c1.Queries) == 0 {
		t.Fatal("no queries")
	}
	for _, q := range c1.Queries {
		if q.SceneID < 0 || q.SceneID >= sc.Scenes {
			t.Fatalf("query scene id %d out of range", q.SceneID)
		}
	}
}

func TestFig02Shape(t *testing.T) {
	e, err := Fig02EncodingFPS(microScale())
	if err != nil {
		t.Fatal(err)
	}
	// At every uplink: H264 FPS > JPEG > PNG > RAW.
	get := func(series string, x float64) float64 {
		for _, p := range e.SeriesPoints(series) {
			if p.X == x {
				return p.Y
			}
		}
		t.Fatalf("missing point %s@%v", series, x)
		return 0
	}
	for _, x := range []float64{1, 8, 32} {
		if !(get("H264", x) > get("JPEG", x) && get("JPEG", x) > get("PNG", x) && get("PNG", x) > get("RAW", x)) {
			t.Errorf("encoding FPS ordering violated at %v Mbps", x)
		}
	}
	// H264 anchor: ~10 FPS at 2 Mbps.
	if fps := get("H264", 2); fps < 7 || fps > 13 {
		t.Errorf("H264 at 2 Mbps = %.1f FPS, want ~10", fps)
	}
}

func TestFig18Shape(t *testing.T) {
	e, err := Fig18Energy(microScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Series()) != 5 {
		t.Errorf("want 5 traces, got %v", e.Series())
	}
	// Full pipeline must be the most expensive trace.
	maxSeries, maxVal := "", 0.0
	for _, s := range e.Series() {
		pts := e.SeriesPoints(s)
		if len(pts) == 0 {
			continue
		}
		if pts[0].Y > maxVal {
			maxVal, maxSeries = pts[0].Y, s
		}
	}
	if maxSeries != "VisualPrint (computation+upload)" {
		t.Errorf("most expensive trace = %q", maxSeries)
	}
}

func TestAblationMultiprobeImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is slow")
	}
	e, err := AblationMultiprobe()
	if err != nil {
		t.Fatal(err)
	}
	pts := e.SeriesPoints("near-duplicate recall")
	if len(pts) != 2 {
		t.Fatalf("want 2 points, got %d", len(pts))
	}
	if pts[1].Y < pts[0].Y {
		t.Errorf("multiprobe reduced recall: %v -> %v", pts[0].Y, pts[1].Y)
	}
}

func TestAblationVerificationReducesFP(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is slow")
	}
	e, err := AblationVerification()
	if err != nil {
		t.Fatal(err)
	}
	pts := e.SeriesPoints("false-positive rate")
	if len(pts) != 2 {
		t.Fatalf("want 2 points, got %d", len(pts))
	}
	if pts[1].Y > pts[0].Y {
		t.Errorf("verification raised FP rate: %v -> %v", pts[0].Y, pts[1].Y)
	}
}

func TestFormatHelpers(t *testing.T) {
	if got := formatKB(51200); got != "50.0 KB" {
		t.Errorf("formatKB = %q", got)
	}
	if got := formatMB(10_500_000); got != "10.5 MB" {
		t.Errorf("formatMB = %q", got)
	}
	if got := formatM(2.456); got != "2.46 m" {
		t.Errorf("formatM = %q", got)
	}
}

// requireCommittedCSV fails unless e's CSV is byte-equal to the committed
// results/<id>.csv that `vpbench -csv` writes at the default (quick) scale.
func requireCommittedCSV(t *testing.T, e *Experiment) {
	t.Helper()
	var got bytes.Buffer
	if err := e.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "results", e.ID+".csv")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s row %d: code writes %q, committed %q (regenerate with go run ./cmd/vpbench -exp %s -csv results)", path, i+1, gl[i], wl[i], e.ID)
		}
	}
	t.Fatalf("%s: code writes %d rows, committed %d", path, len(gl), len(wl))
}

func TestFig14UploadTraceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus build is slow")
	}
	e, err := Fig14UploadTrace(Quick())
	if err != nil {
		t.Fatal(err)
	}
	requireCommittedCSV(t, e)
	vp := e.SeriesPoints("VisualPrint")
	fu := e.SeriesPoints("Frame Upload")
	if len(vp) == 0 || len(fu) == 0 {
		t.Fatal("missing series")
	}
	// Cumulative uploads are monotone, and frames outweigh fingerprints.
	for i := 1; i < len(vp); i++ {
		if vp[i].Y < vp[i-1].Y {
			t.Fatal("VisualPrint trace not monotone")
		}
	}
	if fu[len(fu)-1].Y < 5*vp[len(vp)-1].Y {
		t.Errorf("frame total %.2f MB not far above fingerprint total %.2f MB",
			fu[len(fu)-1].Y, vp[len(vp)-1].Y)
	}
}

func TestExtraLatencyTailShape(t *testing.T) {
	e, err := ExtraLatencyTail(Quick())
	if err != nil {
		t.Fatal(err)
	}
	requireCommittedCSV(t, e)
	fp := e.MedianOf("VisualPrint (200 kp)")
	fu := e.MedianOf("Frame Upload (PNG)")
	if fu < 3*fp {
		t.Errorf("frame median latency %.3f s not far above fingerprint %.3f s", fu, fp)
	}
}

func TestFig05FeatureRatioShape(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus build is slow")
	}
	e, err := Fig05FeatureRatio(microScale())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's premise: features comparable to (>= half of) the image.
	if m := e.MedianOf("Uncompressed"); m < 0.5 {
		t.Errorf("feature/image ratio median %.2f unexpectedly small", m)
	}
	// GZIP shrinks but does not erase the cost.
	if mz := e.MedianOf("Compressed (GZIP)"); mz >= e.MedianOf("Uncompressed") {
		t.Errorf("gzip did not reduce the ratio (%.2f)", mz)
	}
}
