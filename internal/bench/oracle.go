package bench

// Oracle distribution benchmark: the downlink cost of keeping a device
// fleet's uniqueness oracle current. A live server ingests wardrive update
// batches while two consumers track it over TCP — one keeping its OracleSync
// handle (delta chains within the server's epoch window), one syncing a
// fresh handle after every update, which downloads the full blob as a
// client without a held version must. The measurement is
// bytes-per-client-per-update for each update size, and the headline is
// the reduction factor for small batches (a handful of mappings from an
// incremental wardrive pass), where re-sending megabytes of counting-Bloom
// state to ship a few hundred changed cells is most wasteful. Shared by
// `vpbench -exp oracle`, which emits BENCH_oracle.json and enforces the
// small-batch reduction floor behind `make bench-check`.

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"time"

	"visualprint/internal/mathx"
	"visualprint/internal/server"
)

// OracleWorkloadConfig sizes the oracle distribution benchmark.
type OracleWorkloadConfig struct {
	// BaseMappings is the corpus ingested before measurement starts — it
	// sizes the oracle's tables (and so the full-blob cost) realistically.
	BaseMappings int
	// BatchSizes are the wardrive update sizes (mappings per ingest batch)
	// to sweep, smallest first.
	BatchSizes []int
	// UpdatesPerSize is how many consecutive update batches of each size
	// are measured (each one is a served epoch).
	UpdatesPerSize int
	// Seed fixes the synthetic corpus.
	Seed int64
}

// DefaultOracleWorkload is the standard measurement: a ~4k-mapping venue
// taking updates from single-mapping touch-ups to 100-mapping re-drives.
func DefaultOracleWorkload() OracleWorkloadConfig {
	return OracleWorkloadConfig{
		BaseMappings:   4000,
		BatchSizes:     []int{1, 5, 20, 100},
		UpdatesPerSize: 8,
		Seed:           7,
	}
}

// ShortOracleWorkload is the CI-sized configuration behind
// `make bench-check`: same schema and code paths, smaller corpus.
func ShortOracleWorkload() OracleWorkloadConfig {
	return OracleWorkloadConfig{
		BaseMappings:   800,
		BatchSizes:     []int{1, 5, 20},
		UpdatesPerSize: 4,
		Seed:           7,
	}
}

// OracleUpdatePoint is the measured downlink cost at one update size.
type OracleUpdatePoint struct {
	// BatchMappings is the wardrive update size (mappings per batch).
	BatchMappings int `json:"batch_mappings"`
	// Updates is how many batches of this size were measured.
	Updates int `json:"updates"`
	// DeltaBytesPerUpdate is the versioned client's mean response payload
	// bytes per update (delta chains, or full blobs past the window).
	DeltaBytesPerUpdate float64 `json:"delta_bytes_per_update"`
	// FullBytesPerUpdate is the versionless client's cost: one full blob
	// (plus its 8-byte epoch stamp) re-downloaded per update.
	FullBytesPerUpdate float64 `json:"full_bytes_per_update"`
	// ReductionX is FullBytesPerUpdate / DeltaBytesPerUpdate — the
	// downlink saving factor of versioned sync at this update size.
	ReductionX float64 `json:"reduction_x"`
}

// OracleBenchResult is the machine-readable output of RunOracleBenchmark —
// the schema of BENCH_oracle.json (written by `make bench`).
type OracleBenchResult struct {
	Workload OracleWorkloadConfig `json:"workload"`
	// FullBlobBytes is the gzip full-oracle wire size after the base
	// corpus — what a client without a held version pays per update
	// regardless of update size.
	FullBlobBytes int64               `json:"full_blob_bytes"`
	Points        []OracleUpdatePoint `json:"points"`
	Recorded      string              `json:"recorded"`
	Host          string              `json:"host"`
}

// RunOracleBenchmark measures bytes-per-client-per-update across the
// configured update sizes over a live TCP loopback server.
func RunOracleBenchmark(cfg OracleWorkloadConfig) (*OracleBenchResult, error) {
	if cfg.UpdatesPerSize <= 0 || len(cfg.BatchSizes) == 0 {
		return nil, fmt.Errorf("bench: oracle workload needs batch sizes and updates per size")
	}
	router, err := server.NewRouter(server.DefaultDatabaseConfig())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.Serve(ln, router)
	srv.Log = nil
	defer srv.Close()

	rng := rand.New(rand.NewSource(cfg.Seed))
	batch := func(n int) []server.Mapping {
		ms := make([]server.Mapping, n)
		for i := range ms {
			for j := range ms[i].Desc {
				ms[i].Desc[j] = byte(rng.Intn(256))
			}
			ms[i].Pos = mathx.Vec3{
				X: rng.Float64() * 12,
				Y: rng.Float64() * 3,
				Z: rng.Float64() * 9,
			}
		}
		return ms
	}

	ctx := context.Background()
	writer, err := server.Dial(srv.Addr().String(), server.WithLogger(nil))
	if err != nil {
		return nil, err
	}
	defer writer.Close()
	versioned, err := server.Dial(srv.Addr().String(), server.WithLogger(nil))
	if err != nil {
		return nil, err
	}
	defer versioned.Close()
	// fullFetch syncs a fresh handle: with no version to cite, the server
	// answers with the full blob.
	fullFetch := func() (int64, error) {
		fresh := versioned.OracleSync()
		_, err := fresh.Sync(ctx)
		return fresh.TransferBytes(), err
	}

	if _, err := writer.Ingest(ctx, batch(cfg.BaseMappings)); err != nil {
		return nil, err
	}
	h := versioned.OracleSync()
	if _, err := h.Sync(ctx); err != nil {
		return nil, err
	}
	fullBlob, err := fullFetch()
	if err != nil {
		return nil, err
	}

	res := &OracleBenchResult{
		Workload:      cfg,
		FullBlobBytes: fullBlob,
		Recorded:      time.Now().UTC().Format("2006-01-02"),
		Host: fmt.Sprintf("%s/%s, GOMAXPROCS=%d, NumCPU=%d",
			runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU()),
	}
	for _, size := range cfg.BatchSizes {
		var deltaBytes, fullBytes int64
		for u := 0; u < cfg.UpdatesPerSize; u++ {
			if _, err := writer.Ingest(ctx, batch(size)); err != nil {
				return nil, err
			}
			before := h.TransferBytes()
			if _, err := h.Sync(ctx); err != nil {
				return nil, err
			}
			deltaBytes += h.TransferBytes() - before
			n, err := fullFetch()
			if err != nil {
				return nil, err
			}
			fullBytes += n
		}
		p := OracleUpdatePoint{
			BatchMappings:       size,
			Updates:             cfg.UpdatesPerSize,
			DeltaBytesPerUpdate: float64(deltaBytes) / float64(cfg.UpdatesPerSize),
			FullBytesPerUpdate:  float64(fullBytes) / float64(cfg.UpdatesPerSize),
		}
		if p.DeltaBytesPerUpdate > 0 {
			p.ReductionX = p.FullBytesPerUpdate / p.DeltaBytesPerUpdate
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}
