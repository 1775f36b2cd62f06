// Command vpbench regenerates the paper's evaluation figures from the
// simulated substrate and prints their data series (optionally as CSV).
//
//	vpbench -exp all                # every figure at quick scale
//	vpbench -exp fig13,fig19        # selected experiments
//	vpbench -exp takeaways          # the paper-vs-measured summary table
//	vpbench -scale full -csv out/   # paper-scale corpus, CSV files
//	vpbench -exp locate -scale full -locate-json BENCH_locate.json
//	vpbench -exp track -scale full -track-json BENCH_track.json
//	vpbench -exp oracle -scale full -oracle-json BENCH_oracle.json
//	vpbench -exp locate -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Experiment ids: fig02 fig03 fig05 fig06 fig13 fig14 fig15 fig16 fig18
// fig19 fig20 extra-latency throughput locate track oracle takeaways
// ablations.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"visualprint/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
	scaleName := flag.String("scale", "quick", "experiment scale: quick or full")
	csvDir := flag.String("csv", "", "directory to write per-experiment CSV files")
	locateJSON := flag.String("locate-json", "", "file to write the locate benchmark result as JSON (BENCH_locate.json)")
	trackJSON := flag.String("track-json", "", "file to write the walk-trajectory tracking benchmark result as JSON (BENCH_track.json)")
	oracleJSON := flag.String("oracle-json", "", "file to write the oracle distribution benchmark result as JSON (BENCH_oracle.json)")
	oracleGate := flag.Float64("oracle-gate", 0, "with -exp oracle: fail (exit 1) if the smallest-batch bytes-per-update reduction of versioned sync vs full refetch falls below this factor")
	obsOn := flag.Bool("obs", false, "enable observability instrumentation on the benchmark database (measures tracer overhead)")
	locateShards := flag.Int("locate-shards", 0, "run the locate benchmark against a venue sharded this many ways (0/1: the default one-shard venue; >1 measures the scatter-gather route)")
	baseline := flag.String("baseline", "", "baseline locate JSON (e.g. BENCH_locate_short.json) to compare ns/op against")
	maxRegress := flag.Float64("max-regress", 2.0, "with -baseline: fail (exit 1) if ns/op exceeds baseline by this factor")
	coresList := flag.String("cores", "", "comma-separated core counts (e.g. 1,2,4): rerun the locate QPS measurement with GOMAXPROCS pinned per entry and emit the QPS-vs-cores curve")
	coresGate := flag.Float64("cores-gate", 0, "with -cores including 1 and 2: fail (exit 1) if 2-core QPS < this factor x 1-core QPS (skipped when the host has <2 CPUs)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
		// Profiles are flushed only on the success path; error paths
		// os.Exit without one, which is fine for a measurement tool.
		defer pprof.StopCPUProfile()
		defer f.Close()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	var sc bench.Scale
	switch *scaleName {
	case "quick":
		sc = bench.Quick()
	case "full":
		sc = bench.Full()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	wanted := map[string]bool{}
	for _, id := range strings.Split(*exp, ",") {
		wanted[strings.TrimSpace(id)] = true
	}
	all := wanted["all"]

	run := func(id string, f func(bench.Scale) (*bench.Experiment, error)) {
		if !all && !wanted[id] {
			return
		}
		e, err := f(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		printExperiment(e)
		writeCSV(*csvDir, e)
	}

	run("fig02", bench.Fig02EncodingFPS)
	run("fig03", bench.Fig03KeypointCDF)
	run("fig05", bench.Fig05FeatureRatio)
	run("fig06", func(s bench.Scale) (*bench.Experiment, error) {
		a, err := bench.Fig06DimDominance(s)
		if err != nil {
			return nil, err
		}
		printExperiment(a)
		writeCSV(*csvDir, a)
		return bench.Fig06PCA(s)
	})
	if all || wanted["fig13"] {
		ep, er, err := bench.Fig13PrecisionRecall(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fig13: %v\n", err)
			os.Exit(1)
		}
		printExperiment(ep)
		writeCSV(*csvDir, ep)
		printExperiment(er)
		writeCSV(*csvDir, er)
	}
	run("fig14", bench.Fig14UploadTrace)
	run("extra-latency", bench.ExtraLatencyTail)
	run("fig15", bench.Fig15Memory)
	run("fig16", bench.Fig16Latency)
	run("fig18", bench.Fig18Energy)
	run("fig19", bench.Fig19Localization)
	run("fig20", bench.Fig20AxisError)
	run("throughput", func(s bench.Scale) (*bench.Experiment, error) {
		return bench.QueryThroughput(s, 0, 8)
	})

	if all || wanted["locate"] {
		// quick scale runs the CI-sized workload (exercised on every push
		// by `make bench-short`); full scale runs the standard workload
		// whose numbers are comparable against the recorded baseline.
		cfg, iters, perClient := bench.ShortLocateWorkload(), 3, 2
		if *scaleName == "full" {
			cfg, iters, perClient = bench.DefaultLocateWorkload(), 10, 4
		}
		cfg.EnableObs = *obsOn
		if *locateShards > 1 {
			cfg.Shards = *locateShards
		}
		cores, err := parseCores(*coresList)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cores: %v\n", err)
			os.Exit(2)
		}
		res, err := bench.RunLocateBenchmark(cfg, iters, []int{1, 2, 4}, perClient, cores)
		if err != nil {
			fmt.Fprintf(os.Stderr, "locate: %v\n", err)
			os.Exit(1)
		}
		printLocate(res)
		if *locateJSON != "" {
			data, err := json.MarshalIndent(res, "", "  ")
			if err == nil {
				err = os.WriteFile(*locateJSON, append(data, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "locate-json: %v\n", err)
				os.Exit(1)
			}
		}
		if *baseline != "" {
			if err := checkRegression(*baseline, *maxRegress, res); err != nil {
				fmt.Fprintf(os.Stderr, "locate regression check: %v\n", err)
				os.Exit(1)
			}
		}
		if *coresGate > 0 {
			if err := checkCoresGate(*coresGate, res); err != nil {
				fmt.Fprintf(os.Stderr, "locate cores gate: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if all || wanted["track"] {
		// quick scale runs the CI-sized walk (`make bench-track-short`);
		// full scale runs the standard walk behind `make bench-track`.
		cfg := bench.ShortTrackWorkload()
		if *scaleName == "full" {
			cfg = bench.DefaultTrackWorkload()
		}
		res, err := bench.RunTrackBenchmark(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "track: %v\n", err)
			os.Exit(1)
		}
		printTrack(res)
		if *trackJSON != "" {
			data, err := json.MarshalIndent(res, "", "  ")
			if err == nil {
				err = os.WriteFile(*trackJSON, append(data, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "track-json: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if all || wanted["oracle"] {
		// quick scale runs the CI-sized workload (behind `make bench-check`);
		// full scale runs the standard 4k-mapping venue.
		cfg := bench.ShortOracleWorkload()
		if *scaleName == "full" {
			cfg = bench.DefaultOracleWorkload()
		}
		res, err := bench.RunOracleBenchmark(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oracle: %v\n", err)
			os.Exit(1)
		}
		printOracle(res)
		if *oracleJSON != "" {
			data, err := json.MarshalIndent(res, "", "  ")
			if err == nil {
				err = os.WriteFile(*oracleJSON, append(data, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "oracle-json: %v\n", err)
				os.Exit(1)
			}
		}
		if *oracleGate > 0 {
			if err := checkOracleGate(*oracleGate, res); err != nil {
				fmt.Fprintf(os.Stderr, "oracle gate: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if all || wanted["ablations"] {
		for _, f := range []func() (*bench.Experiment, error){
			bench.AblationVerification,
			bench.AblationMultiprobe,
			bench.AblationSaturation,
			bench.AblationLSHParams,
		} {
			e, err := f()
			if err != nil {
				fmt.Fprintf(os.Stderr, "ablation: %v\n", err)
				os.Exit(1)
			}
			printExperiment(e)
			writeCSV(*csvDir, e)
		}
		e, err := bench.AblationICP(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ablation-icp: %v\n", err)
			os.Exit(1)
		}
		printExperiment(e)
		writeCSV(*csvDir, e)
	}

	if all || wanted["takeaways"] {
		rows, err := bench.Takeaways(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "takeaways: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("== Evaluation takeaways (paper vs measured) ==")
		for _, r := range rows {
			fmt.Printf("  %-16s %s\n", r.ID, r.Claim)
			fmt.Printf("  %-16s   paper:    %s\n", "", r.Paper)
			fmt.Printf("  %-16s   measured: %s\n", "", r.Measured)
		}
	}
}

// parseCores parses the -cores flag value ("1,2,4") into core counts.
func parseCores(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var cores []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad core count %q", part)
		}
		cores = append(cores, n)
	}
	return cores, nil
}

// checkCoresGate enforces the multi-core scaling floor: 2-core QPS must be
// at least `factor` times 1-core QPS. On a host without at least 2 real
// CPUs the gate is meaningless (pinning GOMAXPROCS=2 just oversubscribes
// the single core), so it prints a skip notice and passes.
func checkCoresGate(factor float64, res *bench.LocateBenchResult) error {
	if runtime.NumCPU() < 2 {
		fmt.Printf("  cores gate: skipped (host has %d CPU; scaling unmeasurable)\n", runtime.NumCPU())
		return nil
	}
	var q1, q2 float64
	for _, p := range res.QPSVsCores {
		switch p.Cores {
		case 1:
			q1 = p.QPS
		case 2:
			q2 = p.QPS
		}
	}
	if q1 <= 0 || q2 <= 0 {
		return fmt.Errorf("gate needs 1-core and 2-core sweep points (run with -cores 1,2,...)")
	}
	scale := q2 / q1
	fmt.Printf("  cores gate: 2-core %.2f q/s vs 1-core %.2f q/s = %.2fx (floor %.2fx)\n",
		q2, q1, scale, factor)
	if scale < factor {
		return fmt.Errorf("2-core QPS only %.2fx of 1-core (floor %.2fx)", scale, factor)
	}
	return nil
}

// checkRegression compares a fresh locate result against a recorded
// baseline JSON file (BENCH_locate.json schema) and errors if ns/op
// regressed by more than maxRegress. The threshold is deliberately loose
// (2x by default): it is a CI tripwire for catastrophic slowdowns on
// shared runners, not a precision gate.
func checkRegression(path string, maxRegress float64, res *bench.LocateBenchResult) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base bench.LocateBenchResult
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	if base.NsPerOp <= 0 {
		return fmt.Errorf("%s has no ns_per_op", path)
	}
	ratio := res.NsPerOp / base.NsPerOp
	fmt.Printf("  regression check: %.1f ms/op vs baseline %.1f ms/op (%s) = %.2fx (limit %.2fx)\n",
		res.NsPerOp/1e6, base.NsPerOp/1e6, base.Recorded, ratio, maxRegress)
	if ratio > maxRegress {
		return fmt.Errorf("ns/op regressed %.2fx over baseline %s (limit %.2fx)", ratio, path, maxRegress)
	}
	return nil
}

// checkOracleGate enforces the downlink-saving floor: at the smallest
// measured update size, versioned sync must cost at least `factor` times
// fewer bytes per client per update than full refetch.
func checkOracleGate(factor float64, res *bench.OracleBenchResult) error {
	if len(res.Points) == 0 {
		return fmt.Errorf("no measured points")
	}
	p := res.Points[0]
	for _, q := range res.Points[1:] {
		if q.BatchMappings < p.BatchMappings {
			p = q
		}
	}
	fmt.Printf("  oracle gate: %d-mapping updates cost %.0f B vs %.0f B full = %.1fx reduction (floor %.1fx)\n",
		p.BatchMappings, p.DeltaBytesPerUpdate, p.FullBytesPerUpdate, p.ReductionX, factor)
	if p.ReductionX < factor {
		return fmt.Errorf("smallest-batch reduction %.2fx below floor %.2fx", p.ReductionX, factor)
	}
	return nil
}

// printOracle prints the oracle distribution downlink summary.
func printOracle(r *bench.OracleBenchResult) {
	fmt.Printf("== oracle: bytes-per-client-per-update, versioned sync vs full refetch ==\n")
	fmt.Printf("  base corpus %d mappings, full blob %d B (%s)\n",
		r.Workload.BaseMappings, r.FullBlobBytes, r.Host)
	for _, p := range r.Points {
		fmt.Printf("  %4d-mapping updates: %8.0f B/update delta  %8.0f B/update full  %6.1fx reduction\n",
			p.BatchMappings, p.DeltaBytesPerUpdate, p.FullBytesPerUpdate, p.ReductionX)
	}
	fmt.Println()
}

// printTrack prints the walk-trajectory (continuous localization) summary.
func printTrack(r *bench.TrackBenchResult) {
	fmt.Printf("== track: continuous localization over a %d-frame walk ==\n", r.Workload.Frames)
	fmt.Printf("  cold: %5.1f DE generations/frame  %.1f ms/frame  median err %.1f mm (max %.1f)\n",
		r.Cold.MeanGenerations, r.Cold.NsPerFrame/1e6, r.Cold.MedianErrM*1000, r.Cold.MaxErrM*1000)
	fmt.Printf("  warm: %5.1f DE generations/frame  %.1f ms/frame  median err %.1f mm (max %.1f)\n",
		r.Warm.MeanGenerations, r.Warm.NsPerFrame/1e6, r.Warm.MedianErrM*1000, r.Warm.MaxErrM*1000)
	fmt.Printf("  warm/cold generations: %.3fx   warm hits %d/%d (%.0f%%)   (%s)\n",
		r.GenRatio, r.WarmHits, r.Warm.Frames, r.WarmHitRatio*100, r.Host)
	fmt.Println()
}

// printLocate prints the Locate microbenchmark summary.
func printLocate(r *bench.LocateBenchResult) {
	fmt.Printf("== locate: server-side Locate microbenchmark ==\n")
	fmt.Printf("  %.1f ms/op  %.0f allocs/op  %.0f B/op  (%d iters, %s)\n",
		r.NsPerOp/1e6, r.AllocsPerOp, r.BytesPerOp, r.Iters, r.Host)
	for _, c := range []string{"1", "2", "4"} {
		if q, ok := r.QueriesPerSec[c]; ok {
			fmt.Printf("  %s client(s): %.2f queries/s\n", c, q)
		}
	}
	for _, p := range r.QPSVsCores {
		fmt.Printf("  %d core(s) (%d clients, NumCPU=%d): %.2f queries/s (%.2fx vs 1 core)\n",
			p.Cores, p.Clients, p.NumCPU, p.QPS, p.ScaleVs1)
	}
	if r.Baseline != nil {
		fmt.Printf("  baseline %.1f ms/op (%s) -> speedup %.2fx\n",
			r.Baseline.NsPerOp/1e6, r.Baseline.Recorded, r.SpeedupNs)
	}
	fmt.Println()
}

// printExperiment prints a compact textual rendering: notes plus per-series
// summaries (quartiles for CDFs, endpoints for traces).
func printExperiment(e *bench.Experiment) {
	fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
	for _, s := range e.Series() {
		pts := e.SeriesPoints(s)
		if len(pts) == 0 {
			continue
		}
		if isCDF(e) {
			fmt.Printf("  %-34s p25=%.3g median=%.3g p75=%.3g max=%.3g (n=%d)\n",
				s, atY(pts, 0.25), atY(pts, 0.5), atY(pts, 0.75), pts[len(pts)-1].X, len(pts))
		} else {
			fmt.Printf("  %-34s ", s)
			max := 6
			if len(pts) <= max {
				for _, p := range pts {
					fmt.Printf("(%.3g, %.4g) ", p.X, p.Y)
				}
			} else {
				stride := len(pts) / max
				for i := 0; i < len(pts); i += stride {
					fmt.Printf("(%.3g, %.4g) ", pts[i].X, pts[i].Y)
				}
			}
			fmt.Println()
		}
	}
	for _, n := range e.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	fmt.Println()
}

func isCDF(e *bench.Experiment) bool { return e.YLabel == "CDF" }

// atY returns the x value where the CDF series first reaches y.
func atY(pts []bench.Point, y float64) float64 {
	for _, p := range pts {
		if p.Y >= y {
			return p.X
		}
	}
	if len(pts) > 0 {
		return pts[len(pts)-1].X
	}
	return 0
}

func writeCSV(dir string, e *bench.Experiment) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "csv: %v\n", err)
		return
	}
	f, err := os.Create(filepath.Join(dir, e.ID+".csv"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "csv: %v\n", err)
		return
	}
	defer f.Close()
	w := csv.NewWriter(f)
	w.Write([]string{"series", e.XLabel, e.YLabel})
	for _, p := range e.Points {
		w.Write([]string{p.Series,
			strconv.FormatFloat(p.X, 'g', -1, 64),
			strconv.FormatFloat(p.Y, 'g', -1, 64)})
	}
	w.Flush()
	if err := w.Error(); err != nil {
		fmt.Fprintf(os.Stderr, "csv: %v\n", err)
	}
}
