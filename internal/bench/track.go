package bench

// Continuous-localization (walk trajectory) benchmark: a camera walks a
// straight path in front of the synthetic venue, issuing one localization
// query per frame. The same frame sequence is solved twice — cold (every
// frame a fresh, session-less Locate) and warm (all frames share one
// session, so the server seeds each solve from the tracked trajectory) —
// and the result compares solver work (DE generations) and pose accuracy
// between the two. Shared by the bench tests and `vpbench -exp track`,
// which emits the machine-readable BENCH_track.json (see DESIGN.md
// "Continuous localization").

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"visualprint/internal/mathx"
	"visualprint/internal/pose"
	"visualprint/internal/server"
	"visualprint/internal/sift"
)

// TrackWorkloadConfig sizes the walk-trajectory workload.
type TrackWorkloadConfig struct {
	// ClusterMappings / ScatterMappings / QueryKeypoints size the corpus
	// and fingerprint exactly as in LocateWorkloadConfig.
	ClusterMappings int
	ScatterMappings int
	QueryKeypoints  int
	// MaxIterations bounds DE generations per solve (Deadline=0: the
	// workload is compute-bound and deterministic given the prior).
	MaxIterations int
	// Frames is the walk length in queries.
	Frames int
	// StepM is the camera's per-frame displacement in meters. The default
	// 0.08 m is a 0.8 m/s walk at 10 fps.
	StepM float64
	// FrameDt is the wall-clock interval between frames. The tracker's
	// motion model lives in real time (fix timestamps are server-side
	// time.Now), so the walk must be paced like the capture it simulates:
	// issuing frames back-to-back would make a 0.08 m step look like an
	// 8 m/s sprint, trip the MaxSpeed clamp, and measure a workload no
	// real client produces. Default 100 ms (10 fps).
	FrameDt time.Duration
	// Seed fixes the synthetic corpus.
	Seed int64
}

// DefaultTrackWorkload is the standard walk: 48 frames at walking pace
// against the standard locate corpus, full solver budget. The walk is
// long enough that the session's unavoidable expensive start — a cold
// first frame, a wide-prior second frame (no velocity estimate yet) —
// amortizes the way it does in a real AR session.
func DefaultTrackWorkload() TrackWorkloadConfig {
	return TrackWorkloadConfig{
		ClusterMappings: 160,
		ScatterMappings: 4000,
		QueryKeypoints:  200,
		MaxIterations:   pose.DefaultOptions().MaxIterations,
		Frames:          48,
		StepM:           0.08,
		FrameDt:         100 * time.Millisecond,
		Seed:            7,
	}
}

// ShortTrackWorkload is the CI-sized walk (smaller corpus, shorter walk)
// used by `make bench-track-short` and the regression test. The solver
// budget stays at the default: capping MaxIterations would clip the cold
// baseline and flatter the warm/cold ratio.
func ShortTrackWorkload() TrackWorkloadConfig {
	c := DefaultTrackWorkload()
	c.ScatterMappings = 500
	c.Frames = 20
	return c
}

// TrackFrame is one step of the walk: the query fingerprint captured at
// TrueCam.
type TrackFrame struct {
	KPs     []sift.Keypoint
	TrueCam mathx.Vec3
}

// TrackWorkload is a prepared walk-trajectory benchmark: the synthetic
// venue behind a router (sessions are a router subsystem) plus the
// per-frame queries.
type TrackWorkload struct {
	Router *server.Router
	Intr   pose.Intrinsics
	Frames []TrackFrame
	Cfg    TrackWorkloadConfig
}

// NewTrackWorkload builds the venue and the walk. The corpus is the
// LocateWorkload scene — a wall-like slab mid-venue plus scattered
// decoys — and each frame's cluster keypoints are true pinhole
// projections from that frame's camera position, so every query is
// geometrically consistent and the whole walk stays in front of the
// scene with positive depth.
func NewTrackWorkload(cfg TrackWorkloadConfig) (*TrackWorkload, error) {
	if cfg.Frames < 2 {
		return nil, fmt.Errorf("bench: track workload needs >= 2 frames, got %d", cfg.Frames)
	}
	if cfg.QueryKeypoints > cfg.ClusterMappings+cfg.ScatterMappings {
		return nil, fmt.Errorf("bench: query wants %d keypoints but only %d mappings configured",
			cfg.QueryKeypoints, cfg.ClusterMappings+cfg.ScatterMappings)
	}
	dbCfg := server.DefaultDatabaseConfig()
	dbCfg.Pose.Deadline = 0
	dbCfg.Pose.MaxIterations = cfg.MaxIterations
	router, err := server.NewRouter(dbCfg)
	if err != nil {
		return nil, err
	}
	router.EnableObs()
	rng := rand.New(rand.NewSource(cfg.Seed))
	center := mathx.Vec3{X: 4, Y: 1.5, Z: 7.5}
	ms := make([]server.Mapping, 0, cfg.ClusterMappings+cfg.ScatterMappings)
	for i := 0; i < cfg.ClusterMappings; i++ {
		var m server.Mapping
		for j := range m.Desc {
			m.Desc[j] = byte(rng.Intn(256))
		}
		m.Pos = mathx.Vec3{
			X: center.X + rng.Float64()*5.6 - 2.8,
			Y: center.Y + rng.Float64()*1.4 - 0.7,
			Z: center.Z + rng.Float64()*0.8 - 0.4,
		}
		ms = append(ms, m)
	}
	for i := 0; i < cfg.ScatterMappings; i++ {
		var m server.Mapping
		for j := range m.Desc {
			m.Desc[j] = byte(rng.Intn(256))
		}
		m.Pos = mathx.Vec3{
			X: rng.Float64() * 12,
			Y: rng.Float64() * 3,
			Z: rng.Float64() * 9,
		}
		ms = append(ms, m)
	}
	if _, err := router.Ingest(context.Background(), "", ms); err != nil {
		return nil, err
	}

	intr := pose.Intrinsics{W: 200, H: 150, FovX: 1.1, FovY: 0.85}
	cx, cy := float64(intr.W)/2, float64(intr.H)/2
	focal := cx / math.Tan(intr.FovX/2)
	// The walk: parallel to the scene slab, centered on it, ~5.5 m back.
	span := cfg.StepM * float64(cfg.Frames-1)
	start := mathx.Vec3{X: 4 - span/2, Y: 1.4, Z: 2}
	frames := make([]TrackFrame, cfg.Frames)
	for f := range frames {
		cam := mathx.Vec3{X: start.X + cfg.StepM*float64(f), Y: start.Y, Z: start.Z}
		kps := make([]sift.Keypoint, cfg.QueryKeypoints)
		for i := range kps {
			kps[i].Desc = ms[i].Desc
			if i < cfg.ClusterMappings {
				d := ms[i].Pos.Sub(cam)
				kps[i].X = cx + focal*d.X/d.Z
				kps[i].Y = cy - focal*d.Y/d.Z
			} else {
				kps[i].X = float64(10 + (i%16)*11)
				kps[i].Y = float64(8 + (i/16)*10)
			}
		}
		frames[f] = TrackFrame{KPs: kps, TrueCam: cam}
	}
	w := &TrackWorkload{Router: router, Intr: intr, Frames: frames, Cfg: cfg}
	// Fail construction, not measurement, if the walk cannot localize.
	if _, err := router.Locate(context.Background(), "", frames[0].KPs, intr); err != nil {
		return nil, fmt.Errorf("bench: track workload frame 0 does not localize: %w", err)
	}
	return w, nil
}

// FrameStats is the per-frame outcome of one pass over the walk.
type FrameStats struct {
	Generations int     `json:"generations"`
	ErrM        float64 `json:"err_m"`
	SolveNs     int64   `json:"solve_ns"`
}

// RunCold solves every frame session-less (sid 0 — bit-identical to the
// pre-session Locate path).
func (w *TrackWorkload) RunCold() ([]FrameStats, error) {
	return w.run(0)
}

// RunWarm solves every frame inside one session: the first frame seeds
// the tracker, later frames warm-start from the motion prior.
func (w *TrackWorkload) RunWarm(sid uint64) ([]FrameStats, error) {
	if sid == 0 {
		return nil, fmt.Errorf("bench: warm pass needs a non-zero session id")
	}
	defer w.Router.EndSession("", sid)
	return w.run(sid)
}

func (w *TrackWorkload) run(sid uint64) ([]FrameStats, error) {
	out := make([]FrameStats, len(w.Frames))
	ctx := context.Background()
	// Pace the walk only when a session is tracking it: the cold pass has
	// no motion model reading the clock, so sleeping through it would only
	// slow the benchmark down.
	pace := sid != 0 && w.Cfg.FrameDt > 0
	start := time.Now()
	for f, fr := range w.Frames {
		if pace && f > 0 {
			time.Sleep(time.Until(start.Add(time.Duration(f) * w.Cfg.FrameDt)))
		}
		t0 := time.Now()
		res, err := w.Router.LocateSession(ctx, "", sid, fr.KPs, w.Intr)
		if err != nil {
			return nil, fmt.Errorf("bench: frame %d: %w", f, err)
		}
		out[f] = FrameStats{
			Generations: res.Generations,
			ErrM:        res.Position.Dist(fr.TrueCam),
			SolveNs:     time.Since(t0).Nanoseconds(),
		}
	}
	return out, nil
}

// TrackBenchResult is the machine-readable output of RunTrackBenchmark —
// the schema of BENCH_track.json (written by `make bench-track`).
type TrackBenchResult struct {
	Workload TrackWorkloadConfig `json:"workload"`

	// Cold and Warm summarize one pass each over the same walk.
	Cold TrackPassSummary `json:"cold"`
	Warm TrackPassSummary `json:"warm"`

	// WarmHits / WarmMisses are the server's own accounting for the warm
	// pass: frames answered by an accepted warm solve vs. solved cold
	// (first frame, or prior rejected by the residual gate).
	WarmHits   uint64 `json:"warm_hits"`
	WarmMisses uint64 `json:"warm_misses"`
	// WarmHitRatio is WarmHits over the warm pass's frames.
	WarmHitRatio float64 `json:"warm_hit_ratio"`
	// GenRatio is Warm.MeanGenerations / Cold.MeanGenerations — the
	// headline solver-work saving (the acceptance bar is <= 0.5).
	GenRatio float64 `json:"gen_ratio"`

	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Recorded   string `json:"recorded"`
	Host       string `json:"host"`
}

// TrackPassSummary aggregates one pass over the walk. NsPerFrame is
// solve time only — the warm pass's pacing sleeps are off the clock.
type TrackPassSummary struct {
	Frames          int     `json:"frames"`
	NsPerFrame      float64 `json:"ns_per_frame"`
	MeanGenerations float64 `json:"mean_generations"`
	MedianErrM      float64 `json:"median_err_m"`
	MaxErrM         float64 `json:"max_err_m"`
}

func summarize(stats []FrameStats) TrackPassSummary {
	s := TrackPassSummary{Frames: len(stats)}
	if len(stats) == 0 {
		return s
	}
	errs := make([]float64, len(stats))
	gens := 0
	var solveNs int64
	for i, fs := range stats {
		errs[i] = fs.ErrM
		gens += fs.Generations
		solveNs += fs.SolveNs
		if fs.ErrM > s.MaxErrM {
			s.MaxErrM = fs.ErrM
		}
	}
	sort.Float64s(errs)
	s.MedianErrM = errs[len(errs)/2]
	s.MeanGenerations = float64(gens) / float64(len(stats))
	s.NsPerFrame = float64(solveNs) / float64(len(stats))
	return s
}

// RunTrackBenchmark runs the cold and warm passes over one walk workload
// and packages the comparison. The two passes share the venue and the
// frame sequence; only the session differs.
func RunTrackBenchmark(cfg TrackWorkloadConfig) (*TrackBenchResult, error) {
	w, err := NewTrackWorkload(cfg)
	if err != nil {
		return nil, err
	}
	// Warm the pools and caches off the clock (frame 0 ran in the
	// constructor already; run a full cold pass).
	if _, err := w.RunCold(); err != nil {
		return nil, err
	}

	cold, err := w.RunCold()
	if err != nil {
		return nil, err
	}

	before := w.Router.TrackingStats()
	warm, err := w.RunWarm(1)
	if err != nil {
		return nil, err
	}
	after := w.Router.TrackingStats()

	res := &TrackBenchResult{
		Workload:   cfg,
		Cold:       summarize(cold),
		Warm:       summarize(warm),
		WarmHits:   after.Warm - before.Warm,
		WarmMisses: after.Cold - before.Cold,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Recorded:   time.Now().UTC().Format("2006-01-02"),
		Host: fmt.Sprintf("%s/%s, GOMAXPROCS=%d, NumCPU=%d",
			runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU()),
	}
	if res.Warm.Frames > 0 {
		res.WarmHitRatio = float64(res.WarmHits) / float64(res.Warm.Frames)
	}
	if res.Cold.MeanGenerations > 0 {
		res.GenRatio = res.Warm.MeanGenerations / res.Cold.MeanGenerations
	}
	return res, nil
}
