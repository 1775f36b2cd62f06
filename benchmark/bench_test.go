package main

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
	"time"

	vp "visualprint"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload for one window of one second, untraced and
// traced, on a handful of viewpoints, and checks that each run is correct
// and emits exactly the metrics BENCHMARK.json names for its kind, each
// with the unit given there.
func TestSmoke(t *testing.T) {
	sp, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %q is named twice", m.Name)
		}
		seen[m.Name] = true
	}

	sv, err := surveyVenue(vp.BuildWorld(venue()), true)
	if err != nil {
		t.Fatal(err)
	}
	small := scale{views: 8, walkFrames: 8}
	for _, wl := range sp.Workloads {
		if workloads[wl.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not have", wl.Name)
			continue
		}
		in, err := makeInputs(wl.Name, 1, small, sv)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			rec, tr, err := run(sp, in, wl.Name, 1, time.Second, traced, 1)
			if err != nil {
				t.Fatalf("%s: %v", wl.Name, err)
			}
			if !rec.Correct {
				t.Errorf("%s traced=%v: %v", wl.Name, traced, rec.Problems)
			}
			if rec.Attempted < 1 || rec.Failed != 0 {
				t.Errorf("%s traced=%v: %d attempted, %d failed", wl.Name, traced, rec.Attempted, rec.Failed)
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
				if len(tr.spans) == 0 {
					t.Errorf("%s: traced run recorded no span", wl.Name)
				}
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", wl.Name, traced, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rec.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s: emitted %v with unit %q, want unit %q", wl.Name, traced, m.Name, ok, got.Unit, m.Unit)
				}
				// Under the race detector every request is slower than the
				// latency limit, and slo_met_ratio is rightly 0.
				if !traced && got.Value == 0 && m.Name != "slo_met_ratio" {
					t.Errorf("%s: end-to-end metric %s is 0", wl.Name, m.Name)
				}
			}
		}
	}
}

// TestPublicAPIOnly pins the promise that lets the wire-collapse and
// one-engine refactors land without editing the benchmark: nothing under
// internal/ and none of the deprecated client calls.
func TestPublicAPIOnly(t *testing.T) {
	direct, err := exec.Command("go", "list", "-f", `{{join .Imports "\n"}}`, ".").Output()
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range strings.Fields(string(direct)) {
		if strings.HasPrefix(imp, "visualprint/") {
			t.Errorf("benchmark imports %s; only the root visualprint package is allowed", imp)
		}
	}
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !strings.HasSuffix(f.Name(), ".go") || strings.HasSuffix(f.Name(), "_test.go") {
			continue
		}
		src, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		for _, banned := range []string{"FetchOracle", "RefreshOracle", "DialContext"} {
			if strings.Contains(string(src), banned) {
				t.Errorf("%s uses deprecated %s", f.Name(), banned)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}
