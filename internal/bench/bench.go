// Package bench regenerates every figure of the paper's evaluation section
// from the simulated substrate. Each FigNN function returns an Experiment —
// named data series plus notes — that cmd/vpbench prints as aligned rows or
// CSV and that bench_test.go wraps in testing.B benchmarks.
//
// Two scales are provided: Quick (scaled-down venues and corpora, minutes
// of CPU) and Full (the paper's 100-scene / 400-distractor corpus and
// full-size venues; substantially slower). The *shape* of every result —
// which scheme wins, by what factor, where curves cross — is the
// reproduction target; absolute magnitudes differ from the paper's
// hardware, as recorded in EXPERIMENTS.md.
package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"sync"

	"visualprint/internal/mathx"
	"visualprint/internal/scene"
	"visualprint/internal/sift"
)

// Scale selects experiment sizing.
type Scale struct {
	Name            string
	Scenes          int // database scene images
	Distractors     int // database distractor images
	QueriesPerScene int
	ImgW, ImgH      int
	// Venue shrink factor for the localization experiments (1 = paper
	// dimensions).
	VenueShrink float64
	// LocalizationQueries per venue (Figures 19/20).
	LocalizationQueries int
}

// Quick is the default scale: minutes of CPU on a laptop.
func Quick() Scale {
	return Scale{
		Name: "quick", Scenes: 20, Distractors: 60, QueriesPerScene: 3,
		ImgW: 200, ImgH: 150, VenueShrink: 0.35, LocalizationQueries: 10,
	}
}

// Full approximates the paper's corpus sizes (much slower).
func Full() Scale {
	return Scale{
		Name: "full", Scenes: 100, Distractors: 400, QueriesPerScene: 5,
		ImgW: 320, ImgH: 240, VenueShrink: 1, LocalizationQueries: 30,
	}
}

// Point is one (x, y) sample of a named series.
type Point struct {
	Series string
	X, Y   float64
}

// Experiment is a regenerated figure: its data series plus free-form notes
// (calibration constants, counts, caveats).
type Experiment struct {
	ID    string // e.g. "fig13-precision"
	Title string
	// XLabel/YLabel name the axes as in the paper.
	XLabel, YLabel string
	Points         []Point
	Notes          []string
}

// AddSeries appends an entire series from parallel x/y slices.
func (e *Experiment) AddSeries(name string, xs, ys []float64) {
	for i := range xs {
		e.Points = append(e.Points, Point{Series: name, X: xs[i], Y: ys[i]})
	}
}

// AddCDF appends a series containing the empirical CDF of values.
func (e *Experiment) AddCDF(name string, values []float64) {
	for _, p := range mathx.CDF(values) {
		e.Points = append(e.Points, Point{Series: name, X: p.Value, Y: p.Fraction})
	}
}

// Notef appends a formatted note.
func (e *Experiment) Notef(format string, args ...any) {
	e.Notes = append(e.Notes, fmt.Sprintf(format, args...))
}

// Series lists the distinct series names in insertion order.
func (e *Experiment) Series() []string {
	var names []string
	seen := map[string]bool{}
	for _, p := range e.Points {
		if !seen[p.Series] {
			seen[p.Series] = true
			names = append(names, p.Series)
		}
	}
	return names
}

// SeriesPoints returns the points of one series, x-sorted.
func (e *Experiment) SeriesPoints(name string) []Point {
	var pts []Point
	for _, p := range e.Points {
		if p.Series == name {
			pts = append(pts, p)
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	return pts
}

// MedianOf returns the x-value at which a CDF series crosses 0.5.
func (e *Experiment) MedianOf(series string) float64 {
	pts := e.SeriesPoints(series)
	for _, p := range pts {
		if p.Y >= 0.5 {
			return p.X
		}
	}
	if len(pts) > 0 {
		return pts[len(pts)-1].X
	}
	return 0
}

// WriteCSV writes the experiment as CSV: a header row naming the series
// and both axes, then one row per point with the shortest decimal that
// round-trips each value — the files under results/.
func (e *Experiment) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	cw.Write([]string{"series", e.XLabel, e.YLabel})
	for _, p := range e.Points {
		cw.Write([]string{p.Series,
			strconv.FormatFloat(p.X, 'g', -1, 64),
			strconv.FormatFloat(p.Y, 'g', -1, 64)})
	}
	cw.Flush()
	return cw.Error()
}

// venueSpecs returns the three evaluation venues, shrunk by the scale
// factor (Quick keeps render cost tractable; Full uses paper dimensions).
func venueSpecs(sc Scale) []scene.VenueSpec {
	shrink := sc.VenueShrink
	if shrink <= 0 {
		shrink = 1
	}
	specs := []scene.VenueSpec{
		scene.OfficeSpec(1),
		scene.CafeteriaSpec(2),
		scene.GrocerySpec(3),
	}
	for i := range specs {
		specs[i].Width *= shrink
		specs[i].Depth *= shrink
		if specs[i].Width < 12 {
			specs[i].Width = 12
		}
		if specs[i].Depth < 8 {
			specs[i].Depth = 8
		}
		if shrink < 0.6 {
			specs[i].Aisles = specs[i].Aisles / 2
		}
		// Clutter density should track floor area.
		specs[i].Clutter = int(float64(specs[i].Clutter)*shrink*shrink) + 2
	}
	return specs
}

// QueryFrame is one query image's extracted keypoints with its true scene.
type QueryFrame struct {
	SceneID int
	Kps     []sift.Keypoint
	Cam     scene.Camera
}

// Corpus is the shared matching workload: a labeled descriptor database
// built from scene and distractor views across the three venues, plus
// multi-angle query frames for each scene.
type Corpus struct {
	Scale   Scale
	Worlds  []*scene.World
	DB      corpusDB
	Queries []QueryFrame
	// SceneCams records the database view of each scene (by label).
	SceneCams map[int]scene.Camera
}

// corpusDB mirrors match.DB without importing it (bench feeds several
// consumers); descriptors labeled by image id: scene images get their scene
// id, distractor images get ids >= Scale.Scenes.
type corpusDB struct {
	Descs  [][]byte
	Labels []int
}

func (db *corpusDB) add(desc []byte, label int) {
	db.Descs = append(db.Descs, desc)
	db.Labels = append(db.Labels, label)
}

var (
	corpusMu    sync.Mutex
	corpusCache = map[string]*Corpus{}
)

// GetCorpus builds (or returns the cached) corpus for a scale. Building
// renders and SIFT-processes every database and query view, so it is the
// dominant setup cost; the cache amortizes it across experiments in one
// process.
func GetCorpus(sc Scale) (*Corpus, error) {
	corpusMu.Lock()
	defer corpusMu.Unlock()
	if c, ok := corpusCache[sc.Name]; ok {
		return c, nil
	}
	c, err := buildCorpus(sc)
	if err != nil {
		return nil, err
	}
	corpusCache[sc.Name] = c
	return c, nil
}

func buildCorpus(sc Scale) (*Corpus, error) {
	c := &Corpus{Scale: sc, SceneCams: map[int]scene.Camera{}}
	for _, spec := range venueSpecs(sc) {
		c.Worlds = append(c.Worlds, scene.Build(spec))
	}
	// Dense extraction: the paper's high-resolution photos average ~3,500
	// keypoints; at our render scale a lower contrast threshold keeps the
	// per-frame keypoint budget proportionally meaningful for the
	// 200-vs-500-vs-all comparisons.
	cfg := sift.DefaultConfig()
	cfg.ContrastThreshold = 0.01
	cfg.MaxKeypoints = 800

	// Collect POIs across venues: unique ones become scenes, others
	// distractor views.
	type poiRef struct {
		w   *scene.World
		poi scene.POI
	}
	var uniques, others []poiRef
	for _, w := range c.Worlds {
		for _, p := range w.POIs {
			if p.Kind == scene.POIUnique {
				uniques = append(uniques, poiRef{w, p})
			} else {
				others = append(others, poiRef{w, p})
			}
		}
	}
	if len(uniques) < sc.Scenes {
		return nil, fmt.Errorf("bench: only %d unique POIs for %d scenes", len(uniques), sc.Scenes)
	}
	// Deterministic spread: stride through the POI lists.
	stridePick := func(refs []poiRef, n int) []poiRef {
		if n >= len(refs) {
			return refs
		}
		out := make([]poiRef, 0, n)
		stride := float64(len(refs)) / float64(n)
		for i := 0; i < n; i++ {
			out = append(out, refs[int(float64(i)*stride)])
		}
		return out
	}
	scenes := stridePick(uniques, sc.Scenes)
	distractors := stridePick(others, sc.Distractors)

	capture := func(w *scene.World, poi scene.POI, dist, yawOff, pitchOff float64, noise float64, seed int64) ([]sift.Keypoint, scene.Camera, error) {
		cam := scene.CameraFacing(w, poi, dist, yawOff, pitchOff, sc.ImgW, sc.ImgH)
		fr, err := scene.Render(w, cam)
		if err != nil {
			return nil, cam, err
		}
		img := fr.Image
		if noise > 0 {
			// Handheld-capture sensor noise: the paper's queries are
			// phone photos, not clean renders.
			rng := rand.New(rand.NewSource(seed))
			img = img.Clone()
			for i := range img.Pix {
				img.Pix[i] += float32(rng.NormFloat64() * noise)
			}
		}
		return sift.Detect(img, cfg), cam, nil
	}

	// Database views.
	for id, ref := range scenes {
		kps, cam, err := capture(ref.w, ref.poi, 2.5, 0, 0, 0, 0)
		if err != nil {
			return nil, err
		}
		c.SceneCams[id] = cam
		for i := range kps {
			d := make([]byte, sift.DescriptorSize)
			copy(d, kps[i].Desc[:])
			c.DB.add(d, id)
		}
	}
	for i, ref := range distractors {
		label := sc.Scenes + i
		kps, _, err := capture(ref.w, ref.poi, 2.0, 0.15, -0.1, 0, 0)
		if err != nil {
			return nil, err
		}
		for k := range kps {
			d := make([]byte, sift.DescriptorSize)
			copy(d, kps[k].Desc[:])
			c.DB.add(d, label)
		}
	}
	// Query views: substantially different angles, as in the paper
	// ("systematically captured from substantially different angles...
	// intended to challenge all matching schemes"), and farther back so
	// repeated floor/ceiling/fixture content fills much of each frame.
	offsets := [][2]float64{{0.7, -0.15}, {-0.85, 0.12}, {0.95, -0.08}, {-1.05, 0.1}, {0.9, 0.16}}
	for id, ref := range scenes {
		for q := 0; q < sc.QueriesPerScene && q < len(offsets); q++ {
			kps, cam, err := capture(ref.w, ref.poi, 4.2, offsets[q][0], offsets[q][1],
				0.03, int64(id*31+q))
			if err != nil {
				return nil, err
			}
			c.Queries = append(c.Queries, QueryFrame{SceneID: id, Kps: kps, Cam: cam})
		}
	}
	return c, nil
}

// Descriptors returns the raw descriptor slices of all query frames of one
// query (flattened helper for the matching experiments).
func (q *QueryFrame) Descriptors() [][]byte {
	out := make([][]byte, len(q.Kps))
	for i := range q.Kps {
		out[i] = q.Kps[i].Desc[:]
	}
	return out
}
