package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the rule the acceptance check uses).
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return at(1), at(3)
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric of one workload over a file's runs.
func (f *resultFile) values(workload, name string, traced bool) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == traced {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// compareFiles prints, for every end-to-end metric on every workload, the
// median of the runs in a (the parent) and in b (the change) and a verdict
// under the metric's bound:
//
//	worse         b's median is worse than a's by more than the bound
//	unresolved    a's own quartile spread is wider than the bound, and not
//	              every run of b reads better than every run of a
//	better        every run of b beats every run of a and the medians differ
//	              by more than a's spread
//	within bound  otherwise
//
// With fewer than four runs on a side the spread is not known: it prints as
// n/a and the verdict is only ever worse or within bound. It reports whether
// any pair came out worse.
func compareFiles(w io.Writer, sp *spec, pathA, pathB string) (anyWorse bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s  %s on %s (%d cpu, %s)\nb: %s  %s on %s (%d cpu, %s)\n",
		pathA, a.Commit, a.Host, a.Nproc, a.Go, pathB, b.Commit, b.Host, b.Nproc, b.Go)
	fmt.Fprintf(w, "%-21s %-24s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "a median", "b median", "change", "a spread", "bound", "verdict")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			xa, xb := a.values(wl.Name, m.Name, false), b.values(wl.Name, m.Name, false)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			sign := 1.0 // a positive change is a worsening
			if m.Better == "higher" {
				sign = -1
			}
			change := sign * ratio(mb-ma, ma)
			spread, spreadText := 0.0, "n/a"
			known := len(xa) >= 4 && len(xb) >= 4
			if known {
				q1, q3 := quartiles(xa)
				spread = ratio(q3-q1, ma)
				spreadText = fmt.Sprintf("%.1f%%", 100*spread)
			}
			allBetter := known
			for _, x := range xb {
				for _, y := range xa {
					if sign*(x-y) >= 0 {
						allBetter = false
					}
				}
			}
			verdict := "within bound"
			switch {
			case spread > m.Bound && !allBetter:
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
				anyWorse = true
			case allBetter && -change > spread:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-21s %-24s %12.4f %12.4f %+7.1f%% %8s %6.0f%%  %s\n",
				wl.Name, m.Name, ma, mb, 100*sign*change, spreadText, 100*m.Bound, verdict)
		}
	}
	for _, f := range []*resultFile{a, b} {
		for _, wl := range sp.Workloads {
			plain, traced := f.values(wl.Name, "latency_ms_p50", false), f.values(wl.Name, "trace.latency_ms_p50", true)
			if len(plain) > 0 && len(traced) > 0 {
				mp, mt := median(plain), median(traced)
				fmt.Fprintf(w, "tracing overhead, %s, %s: latency_ms_p50 %.3f traced, %.3f untraced (%+.1f%%)\n",
					f.Commit, wl.Name, mt, mp, 100*ratio(mt-mp, mp))
			}
		}
	}
	return anyWorse, nil
}
