// Command vpbench regenerates the paper's evaluation figures from the
// simulated substrate and prints their data series (optionally as CSV).
//
//	vpbench -exp all                # every figure at quick scale
//	vpbench -exp fig13,fig19        # selected experiments
//	vpbench -exp takeaways          # the paper-vs-measured summary table
//	vpbench -scale full -csv out/   # paper-scale corpus, CSV files
//
// Experiment ids: fig02 fig03 fig05 fig06 fig13 fig14 fig15 fig16 fig18
// fig19 fig20 extra-latency takeaways ablations.
//
// Performance is not measured here: one frame becoming one pose is timed
// end to end and layer by layer by benchmark/ (see BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"visualprint/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
	scaleName := flag.String("scale", "quick", "experiment scale: quick or full")
	csvDir := flag.String("csv", "", "directory to write per-experiment CSV files")
	flag.Parse()

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

// writeCSV writes e to dir/<id>.csv when -csv names a directory; a failed
// write ends the run with status 1.
func writeCSV(dir string, e *bench.Experiment) {
	if dir == "" {
		return
	}
	if err := writeCSVFile(dir, e); err != nil {
		fmt.Fprintf(os.Stderr, "csv: %v\n", err)
		os.Exit(1)
	}
}

func writeCSVFile(dir string, e *bench.Experiment) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, e.ID+".csv"))
	if err != nil {
		return err
	}
	if err := e.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
