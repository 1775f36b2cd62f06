package bench

// Server-side Locate microbenchmark workload: a synthetic database and query
// set exercising the full query pipeline — per-keypoint LSH candidate
// retrieval, spatial clustering, and the differential-evolution pose solve —
// with no rendering or SIFT in the measured loop. Shared by the root
// bench_test.go benchmarks and `vpbench -exp locate`, which emits the
// machine-readable BENCH_locate.json tracked by the perf trajectory
// (see DESIGN.md "Performance").

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"sync"
	"time"

	"visualprint/internal/mathx"
	"visualprint/internal/pose"
	"visualprint/internal/server"
	"visualprint/internal/sift"
)

// LocateBaselineInfo is a reference measurement of the standard
// LocateWorkload against which new numbers are compared in
// BENCH_locate.json, so regressions and wins stay visible across PRs.
type LocateBaselineInfo struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	Recorded    string  `json:"recorded"`
	Host        string  `json:"host"`
}

// LocateBaseline is the pre-optimization measurement: the code as of the
// previous PR (per-row descriptor conversion, allocating probe/key/dedup
// paths, full objective evaluation of every DE trial, no convergence stop)
// driving exactly this file's DefaultLocateWorkload. ns/op is the median
// of 10 runs interleaved with the optimized build on the same host to
// cancel machine drift; allocs and bytes are exact (deterministic
// workload).
func LocateBaseline() LocateBaselineInfo {
	return LocateBaselineInfo{
		NsPerOp:     122_650_000,
		AllocsPerOp: 64_999,
		BytesPerOp:  8_187_328,
		Recorded:    "2026-08-06",
		Host:        "1-core Intel Xeon @ 2.10 GHz, linux/amd64, GOMAXPROCS=1",
	}
}

// CoresPoint is one entry of the QPS-vs-cores curve: throughput measured
// with GOMAXPROCS pinned to Cores. NumCPU records the hardware parallelism
// actually available when the point was taken — on a host with fewer
// physical CPUs than Cores the point measures oversubscription, not
// scaling, and readers of the JSON must interpret it with that field.
type CoresPoint struct {
	Cores   int     `json:"cores"`
	NumCPU  int     `json:"num_cpu"`
	Clients int     `json:"clients"`
	QPS     float64 `json:"qps"`
	// ScaleVs1 is QPS divided by the 1-core point's QPS (0 when the sweep
	// has no 1-core entry).
	ScaleVs1 float64 `json:"scale_vs_1,omitempty"`
}

// LocateBenchResult is the machine-readable output of RunLocateBenchmark —
// the schema of BENCH_locate.json (written by `make bench`).
type LocateBenchResult struct {
	Workload    LocateWorkloadConfig `json:"workload"`
	Iters       int                  `json:"iters"`
	NsPerOp     float64              `json:"ns_per_op"`
	AllocsPerOp float64              `json:"allocs_per_op"`
	BytesPerOp  float64              `json:"bytes_per_op"`
	// QueriesPerSec maps client count -> end-to-end localization
	// queries/s over a live TCP loopback server, at the ambient
	// GOMAXPROCS recorded below.
	QueriesPerSec map[string]float64 `json:"queries_per_sec,omitempty"`
	// QPSVsCores is the multi-core scaling curve: the same live-server
	// throughput measurement repeated with GOMAXPROCS pinned per entry.
	QPSVsCores []CoresPoint `json:"qps_vs_cores,omitempty"`
	// GOMAXPROCS and NumCPU are the ambient runtime parallelism the
	// latency/QPS numbers above were measured at (the cores sweep pins its
	// own per entry).
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	// Baseline and SpeedupNs are present only for the standard workload,
	// where the recorded pre-optimization numbers are comparable.
	Baseline  *LocateBaselineInfo `json:"baseline,omitempty"`
	SpeedupNs float64             `json:"speedup_ns_per_op,omitempty"`
	Recorded  string              `json:"recorded"`
	Host      string              `json:"host"`
}

// RunLocateBenchmark measures Locate latency (direct calls) and
// throughput (live server, for each entry of clients) on one workload.
// A non-empty coresSweep additionally measures the QPS-vs-cores curve:
// the throughput measurement repeated once per entry with GOMAXPROCS
// pinned to that core count (restored afterwards).
func RunLocateBenchmark(cfg LocateWorkloadConfig, iters int, clients []int, perClient int, coresSweep []int) (*LocateBenchResult, error) {
	if iters <= 0 {
		iters = 5
	}
	w, err := NewLocateWorkload(cfg)
	if err != nil {
		return nil, err
	}
	if err := w.Run(); err != nil { // warm pools and caches
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := w.Run(); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	res := &LocateBenchResult{
		Workload:    cfg,
		Iters:       iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(iters),
		BytesPerOp:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(iters),
		Recorded:    time.Now().UTC().Format("2006-01-02"),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Host: fmt.Sprintf("%s/%s, GOMAXPROCS=%d, NumCPU=%d",
			runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU()),
	}
	if len(clients) > 0 {
		res.QueriesPerSec = make(map[string]float64, len(clients))
		for _, c := range clients {
			qps, err := w.QPS(c, perClient)
			if err != nil {
				return nil, err
			}
			res.QueriesPerSec[strconv.Itoa(c)] = qps
		}
	}
	if len(coresSweep) > 0 {
		pts, err := w.CoresSweep(coresSweep, perClient)
		if err != nil {
			return nil, err
		}
		res.QPSVsCores = pts
	}
	if cfg == DefaultLocateWorkload() {
		b := LocateBaseline()
		res.Baseline = &b
		res.SpeedupNs = b.NsPerOp / res.NsPerOp
	}
	return res, nil
}

// LocateWorkloadConfig sizes the synthetic Locate workload.
type LocateWorkloadConfig struct {
	// ClusterMappings is the number of spatially-clustered mappings the
	// query should match (they survive cluster filtering into the solve).
	ClusterMappings int
	// ScatterMappings is the number of decoy mappings spread across the
	// venue (they size the LSH tables realistically).
	ScatterMappings int
	// QueryKeypoints is the fingerprint size, the paper's 200-keypoint
	// upload by default.
	QueryKeypoints int
	// MaxIterations bounds DE generations; the solve runs with Deadline=0
	// so the benchmark is compute-bound and deterministic.
	MaxIterations int
	// Seed fixes the synthetic corpus and the solver.
	Seed int64
	// EnableObs turns on the engine's observability instrumentation
	// (counters, stage tracer) for the measured loop, so the tracer's
	// overhead can be quantified against an uninstrumented run. A config
	// with EnableObs set is not comparable against the recorded baseline,
	// so no baseline is attached to its result.
	EnableObs bool `json:"enable_obs,omitempty"`
	// Shards > 1 ingests the corpus into a sharded venue and measures the
	// scatter-gather Locate route; 0 or 1 measures the default one-shard
	// venue. Results are bit-identical either way (the merge reproduces the
	// one-shard candidate ranking), so the delta between the two is pure
	// scatter-gather overhead. A sharded run is not comparable against the
	// recorded baseline.
	Shards int `json:"shards,omitempty"`
}

// DefaultLocateWorkload is the standard measurement configuration: a
// 200-keypoint query against ~4k mappings with the default solver budget.
// Most of the fingerprint (160 of 200 keypoints) comes from the queried
// scene, as in a real capture; the remaining 40 are decoys whose matches
// scatter across the venue and must lose the clustering vote.
func DefaultLocateWorkload() LocateWorkloadConfig {
	return LocateWorkloadConfig{
		ClusterMappings: 160,
		ScatterMappings: 4000,
		QueryKeypoints:  200,
		MaxIterations:   pose.DefaultOptions().MaxIterations,
		Seed:            7,
	}
}

// ShortLocateWorkload is a CI-sized configuration (same shape, ~10x less
// compute) used by `make bench-short` to keep the JSON schema exercised on
// every push without paying the full measurement cost.
func ShortLocateWorkload() LocateWorkloadConfig {
	c := DefaultLocateWorkload()
	c.ScatterMappings = 500
	c.MaxIterations = 15
	return c
}

// LocateWorkload is a prepared synthetic Locate benchmark: an engine holding
// the corpus in one venue plus a query whose answer passes clustering and
// reaches the pose solver.
type LocateWorkload struct {
	Router *server.Router
	// VenueName is the venue the corpus lives in: the default one-shard
	// venue, or a sharded one when Cfg.Shards > 1.
	VenueName string
	KPs       []sift.Keypoint
	Intr      pose.Intrinsics
	Cfg       LocateWorkloadConfig
	// TrueCam is the camera position the cluster keypoints were projected
	// from; the solved position must land near it.
	TrueCam mathx.Vec3
}

// NewLocateWorkload builds the synthetic database and query. The cluster
// descriptors are ingested first, so the first ClusterMappings query
// keypoints are exact (distance-0) LSH hits onto a tight spatial cluster;
// the remaining keypoints match scattered decoys that clustering discards.
//
// The cluster keypoints' pixel coordinates are the true projections of
// their 3D positions from a fixed camera pose — a geometrically consistent
// query, like every real localization. Consistency matters for what the
// benchmark measures: it gives the pose objective a near-zero optimum, so
// the solver converges and the early-abort evaluation path carries its
// realistic share of the work (an inconsistent pixel assignment leaves
// every trial's cost pinned near the residual cap, a query no real client
// can produce).
func NewLocateWorkload(cfg LocateWorkloadConfig) (*LocateWorkload, error) {
	if cfg.QueryKeypoints > cfg.ClusterMappings+cfg.ScatterMappings {
		return nil, fmt.Errorf("bench: query wants %d keypoints but only %d mappings configured",
			cfg.QueryKeypoints, cfg.ClusterMappings+cfg.ScatterMappings)
	}
	dbCfg := server.DefaultDatabaseConfig()
	dbCfg.Pose.Deadline = 0 // compute-bound and deterministic
	dbCfg.Pose.MaxIterations = cfg.MaxIterations
	router, err := server.NewRouter(dbCfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// The scene is a wall-like slab mid-venue: wide in X (real angular
	// baseline for the pairwise-angle objective), shallow in Z, and deep
	// enough into the venue that its mirror image — the reflection of the
	// camera through the slab plane, which the objective cannot distinguish
	// for a planar scene — falls outside the search box.
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
	if cfg.EnableObs {
		router.EnableObs()
	}
	venueName := ""
	if cfg.Shards > 1 {
		venueName = "bench"
		if err := router.ConfigureVenue(venueName, server.VenueConfig{Shards: cfg.Shards}); err != nil {
			return nil, err
		}
	}
	if _, err := router.Ingest(context.Background(), venueName, ms); err != nil {
		return nil, err
	}
	intr := pose.Intrinsics{W: 200, H: 150, FovX: 1.1, FovY: 0.85}
	cam := mathx.Vec3{X: 4, Y: 1.4, Z: 2} // ~5.5 m back from the scene, facing +Z
	cx, cy := float64(intr.W)/2, float64(intr.H)/2
	focal := cx / math.Tan(intr.FovX/2)
	kps := make([]sift.Keypoint, cfg.QueryKeypoints)
	for i := range kps {
		kps[i].Desc = ms[i].Desc
		if i < cfg.ClusterMappings {
			// True pinhole projection from cam (upright, facing +Z) — the
			// same camera model pose.Localize inverts.
			d := ms[i].Pos.Sub(cam)
			kps[i].X = cx + focal*d.X/d.Z
			kps[i].Y = cy - focal*d.Y/d.Z
		} else {
			// Decoy keypoints (their matches are discarded by clustering):
			// pixel positions on an arbitrary grid.
			kps[i].X = float64(10 + (i%16)*11)
			kps[i].Y = float64(8 + (i/16)*10)
		}
	}
	w := &LocateWorkload{Router: router, VenueName: venueName, KPs: kps, Intr: intr, Cfg: cfg, TrueCam: cam}
	// Fail construction, not measurement, if the query cannot localize —
	// and, at full solver budget, if it does not localize close to the
	// true camera (the workload must measure a converging solve).
	res, err := w.locate(context.Background())
	if err != nil {
		return nil, fmt.Errorf("bench: locate workload query does not localize: %w", err)
	}
	if cfg.MaxIterations >= 100 {
		e := res.Position.Sub(cam)
		if errm := math.Sqrt(e.Dot(e)); errm > 1.5 {
			return nil, fmt.Errorf("bench: locate workload solved %.2f m from the true camera", errm)
		}
	}
	return w, nil
}

// Run performs one Locate — the benchmark body.
func (w *LocateWorkload) Run() error {
	_, err := w.locate(context.Background())
	return err
}

// locate issues the workload query against the workload's venue.
func (w *LocateWorkload) locate(ctx context.Context) (server.LocateResult, error) {
	return w.Router.Locate(ctx, w.VenueName, w.KPs, w.Intr)
}

// QPS measures end-to-end localization queries/s against a live TCP server
// backed by this workload's engine, with the given number of concurrent
// clients each issuing perClient pipelined requests.
func (w *LocateWorkload) QPS(clients, perClient int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := server.Serve(ln, w.Router)
	srv.Log = nil
	defer srv.Close()
	return measureLocateQPS(srv.Addr().String(), w, clients, perClient)
}

// CoresSweep measures the QPS-vs-cores curve: for each requested core
// count it pins GOMAXPROCS to that value, runs the live-server throughput
// measurement with 2x that many concurrent clients (enough offered load to
// saturate the pinned cores without drowning the admission queue), and
// restores the previous GOMAXPROCS before returning. ScaleVs1 on each
// point is relative to the sweep's 1-core entry when one exists.
//
// Pinning GOMAXPROCS above runtime.NumCPU() is permitted — the point is
// still recorded, with NumCPU exposing that it measured oversubscription
// rather than hardware scaling.
func (w *LocateWorkload) CoresSweep(cores []int, perClient int) ([]CoresPoint, error) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	pts := make([]CoresPoint, 0, len(cores))
	for _, n := range cores {
		if n < 1 {
			return nil, fmt.Errorf("bench: cores sweep entry %d < 1", n)
		}
		runtime.GOMAXPROCS(n)
		clients := 2 * n
		qps, err := w.QPS(clients, perClient)
		if err != nil {
			runtime.GOMAXPROCS(prev)
			return nil, err
		}
		pts = append(pts, CoresPoint{
			Cores:   n,
			NumCPU:  runtime.NumCPU(),
			Clients: clients,
			QPS:     qps,
		})
	}
	runtime.GOMAXPROCS(prev)
	var base float64
	for _, p := range pts {
		if p.Cores == 1 {
			base = p.QPS
			break
		}
	}
	if base > 0 {
		for i := range pts {
			pts[i].ScaleVs1 = pts[i].QPS / base
		}
	}
	return pts, nil
}

func measureLocateQPS(addr string, w *LocateWorkload, clients, perClient int) (float64, error) {
	conns := make([]*server.Client, clients)
	for i := range conns {
		c, err := server.Dial(addr, server.WithVenue(w.VenueName))
		if err != nil {
			return 0, err
		}
		conns[i] = c
		defer c.Close()
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	start := time.Now()
	for _, c := range conns {
		wg.Add(1)
		go func(c *server.Client) {
			defer wg.Done()
			for q := 0; q < perClient; q++ {
				if _, err := c.Query(ctx, w.KPs, w.Intr); err != nil && !server.IsRemote(err) {
					errc <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errc)
	for err := range errc {
		return 0, err
	}
	return float64(clients*perClient) / elapsed.Seconds(), nil
}
