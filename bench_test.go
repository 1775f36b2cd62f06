// Benchmarks regenerating each figure of the paper's evaluation (see
// DESIGN.md section 4 for the figure-to-module map and EXPERIMENTS.md for
// paper-vs-measured results). Each benchmark runs one experiment at a
// reduced scale; use cmd/vpbench for the full quick/full-scale runs and the
// printed data series.
//
// The shared corpus and wardriven venues are cached across benchmarks, so
// the first corpus-touching benchmark pays the render+SIFT setup cost.
package visualprint_test

import (
	"context"
	"testing"

	"visualprint"
	"visualprint/internal/bench"
)

// benchScale keeps `go test -bench=.` tractable: a small corpus and
// shrunken venues. Shapes (orderings, ratios) are preserved; magnitudes are
// reported by cmd/vpbench at quick/full scale.
func benchScale() bench.Scale {
	return bench.Scale{
		Name: "bench", Scenes: 10, Distractors: 20, QueriesPerScene: 2,
		ImgW: 160, ImgH: 120, VenueShrink: 0.25, LocalizationQueries: 5,
	}
}

func run1(b *testing.B, f func(bench.Scale) (*bench.Experiment, error)) {
	b.Helper()
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		e, err := f(sc)
		if err != nil {
			b.Fatal(err)
		}
		if len(e.Points) == 0 {
			b.Fatalf("%s produced no data", e.ID)
		}
	}
}

// BenchmarkFig02EncodingFPS regenerates Figure 2 (uplink vs sustainable FPS
// per encoding).
func BenchmarkFig02EncodingFPS(b *testing.B) { run1(b, bench.Fig02EncodingFPS) }

// BenchmarkFig03KeypointCDF regenerates Figure 3 (usable keypoints under
// PNG vs JPEG).
func BenchmarkFig03KeypointCDF(b *testing.B) { run1(b, bench.Fig03KeypointCDF) }

// BenchmarkFig05FeatureRatio regenerates Figure 5 (feature/image size
// ratio).
func BenchmarkFig05FeatureRatio(b *testing.B) { run1(b, bench.Fig05FeatureRatio) }

// BenchmarkFig06DimDominance regenerates Figure 6a (few dimensions dominate
// NN distance).
func BenchmarkFig06DimDominance(b *testing.B) { run1(b, bench.Fig06DimDominance) }

// BenchmarkFig06PCA regenerates Figure 6b (descriptor covariance
// eigenvalue decay).
func BenchmarkFig06PCA(b *testing.B) { run1(b, bench.Fig06PCA) }

// BenchmarkFig13PrecisionRecall regenerates Figure 13 (precision/recall
// CDFs for the five schemes).
func BenchmarkFig13PrecisionRecall(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		ep, er, err := bench.Fig13PrecisionRecall(sc)
		if err != nil {
			b.Fatal(err)
		}
		if len(ep.Points) == 0 || len(er.Points) == 0 {
			b.Fatal("fig13 produced no data")
		}
	}
}

// BenchmarkFig14UploadTrace regenerates Figure 14 (cumulative upload,
// VisualPrint vs frames).
func BenchmarkFig14UploadTrace(b *testing.B) { run1(b, bench.Fig14UploadTrace) }

// BenchmarkFig15Memory regenerates Figure 15 (client disk/memory by
// scheme).
func BenchmarkFig15Memory(b *testing.B) { run1(b, bench.Fig15Memory) }

// BenchmarkFig16Latency regenerates Figure 16 (SIFT vs oracle filtering
// latency).
func BenchmarkFig16Latency(b *testing.B) { run1(b, bench.Fig16Latency) }

// BenchmarkFig18Energy regenerates Figure 18 (component power traces).
func BenchmarkFig18Energy(b *testing.B) { run1(b, bench.Fig18Energy) }

// BenchmarkFig19Localization regenerates Figure 19 (3D localization error
// CDFs per venue).
func BenchmarkFig19Localization(b *testing.B) { run1(b, bench.Fig19Localization) }

// BenchmarkFig20AxisError regenerates Figure 20 (error by axis).
func BenchmarkFig20AxisError(b *testing.B) { run1(b, bench.Fig20AxisError) }

// BenchmarkTakeaways regenerates the paper's evaluation-takeaways summary.
func BenchmarkTakeaways(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Takeaways(sc)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no takeaways")
		}
	}
}

// Ablation benchmarks for the design choices DESIGN.md calls out.

func runAblation(b *testing.B, f func() (*bench.Experiment, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		e, err := f()
		if err != nil {
			b.Fatal(err)
		}
		if len(e.Points) == 0 {
			b.Fatalf("%s produced no data", e.ID)
		}
	}
}

// BenchmarkAblationVerification: verification Bloom filter on/off.
func BenchmarkAblationVerification(b *testing.B) { runAblation(b, bench.AblationVerification) }

// BenchmarkAblationMultiprobe: multiprobe on/off.
func BenchmarkAblationMultiprobe(b *testing.B) { runAblation(b, bench.AblationMultiprobe) }

// BenchmarkAblationSaturation: counter width sweep.
func BenchmarkAblationSaturation(b *testing.B) { runAblation(b, bench.AblationSaturation) }

// BenchmarkAblationLSHParams: L/M/W sweep around the paper's values.
func BenchmarkAblationLSHParams(b *testing.B) { runAblation(b, bench.AblationLSHParams) }

// BenchmarkAblationICP: map error with/without ICP drift correction.
func BenchmarkAblationICP(b *testing.B) { run1(b, bench.AblationICP) }

// Persistence benchmarks (see DESIGN.md "Persistence" and EXPERIMENTS.md).

// persistenceMappings builds a synthetic ingest corpus: descriptor bytes and
// positions only — rendering is not what these benchmarks measure.
func persistenceMappings(n int) []visualprint.Mapping {
	ms := make([]visualprint.Mapping, n)
	for i := range ms {
		for j := range ms[i].Desc {
			ms[i].Desc[j] = byte((i*131 + j*31) % 251)
		}
		ms[i].Pos.X = float64(i%97) * 0.25
		ms[i].Pos.Y = float64(i%13) * 0.2
		ms[i].Pos.Z = float64(i%59) * 0.3
	}
	return ms
}

// BenchmarkIngestThroughputMemory is the in-memory ingest baseline the
// durable variant is compared against.
func BenchmarkIngestThroughputMemory(b *testing.B) {
	benchIngest(b, false)
}

// BenchmarkIngestThroughputDurable measures WAL-backed ingest: every batch
// is logged and fsynced before it is acknowledged.
func BenchmarkIngestThroughputDurable(b *testing.B) {
	benchIngest(b, true)
}

func benchIngest(b *testing.B, durable bool) {
	const batch = 500
	ms := persistenceMappings(batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, err := visualprint.NewServer(visualprint.DefaultServerConfig())
		if err != nil {
			b.Fatal(err)
		}
		if durable {
			if err := srv.OpenData(b.TempDir()); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		for k := 0; k < 8; k++ {
			if _, err := srv.Ingest(context.Background(), "", ms); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := srv.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(8*batch), "mappings/op")
}

// BenchmarkColdRecoveryWAL measures a cold start that replays the whole log
// (no snapshot): the worst-case restart.
func BenchmarkColdRecoveryWAL(b *testing.B) { benchColdRecovery(b, false) }

// BenchmarkColdRecoverySnapshot measures a cold start from a compacted
// snapshot with an empty WAL tail: the common restart.
func BenchmarkColdRecoverySnapshot(b *testing.B) { benchColdRecovery(b, true) }

func benchColdRecovery(b *testing.B, compacted bool) {
	dir := b.TempDir()
	srv, err := visualprint.NewServer(visualprint.DefaultServerConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.OpenData(dir); err != nil {
		b.Fatal(err)
	}
	ms := persistenceMappings(500)
	for k := 0; k < 8; k++ {
		if _, err := srv.Ingest(context.Background(), "", ms); err != nil {
			b.Fatal(err)
		}
	}
	if compacted {
		if err := srv.Compact(); err != nil {
			b.Fatal(err)
		}
	}
	want := srv.Stats("").Mappings
	if err := srv.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv2, err := visualprint.NewServer(visualprint.DefaultServerConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := srv2.OpenData(dir); err != nil {
			b.Fatal(err)
		}
		if got := srv2.Stats("").Mappings; got != want {
			b.Fatalf("recovered %d mappings, want %d", got, want)
		}
		b.StopTimer()
		if err := srv2.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(want), "mappings/op")
}
