// Command vpbenchmark is the repository's frame-to-pose benchmark: it
// drives a live in-memory server over loopback TCP through the public
// visualprint API only, on four workloads, checks the answers, and prints
// the metrics BENCHMARK.json names. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setUps is how often a run sets the system up; setup_s is the median.
const setUps = 3

// metricSpec is one entry of BENCHMARK.json's end_to_end or per_layer.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory or its parent
// (the benchmark runs from the repository root or from benchmark/) and
// returns it with the directory it was found in.
func loadSpec() (*spec, string, error) {
	for _, root := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &s, root, nil
	}
	return nil, "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as -out keeps it.
type record struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    bool     `json:"trace"`
	Problems []string `json:"problems,omitempty"`
	report
}

// resultFile is what -out appends to and -compare reads: runs of one
// commit on one host.
type resultFile struct {
	Host       string   `json:"host"`
	Nproc      int      `json:"nproc"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Go         string   `json:"go"`
	Commit     string   `json:"commit"`
	Runs       []record `json:"runs"`
}

func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func appendRecord(path string, r record) error {
	host, _ := os.Hostname() // an empty host name is recorded as such
	f := resultFile{Host: host, Nproc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit()}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	f.Runs = append(f.Runs, r)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func main() {
	log.SetFlags(0)
	workload := flag.String("workload", "", "frame_walk, fingerprint_arrivals, session_walk or wardrive_mix")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 0, "measured seconds (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1: record spans, print the per-layer metrics and write the span file")
	out := flag.String("out", "", "append the run to this result file")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()

	sp, root, err := loadSpec()
	if err != nil {
		log.Fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("usage: -compare a.json b.json")
		}
		worse, err := compareFiles(os.Stdout, sp, flag.Arg(0), flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if workloads[*workload] == nil {
		log.Fatalf("unknown workload %q", *workload)
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}

	runtime.GOMAXPROCS(runtime.NumCPU())
	in, err := makeInputs(*workload, *seed, fullScale, nil)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("inputs: %d views, %d bulk batches, %.1f s", len(in.views), len(in.batches), in.genS)
	rec, tr, err := run(sp, in, *workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace != 0, setUps)
	if err != nil {
		log.Fatal(err)
	}
	if tr != nil {
		path := filepath.Join(root, "benchmark", "out", "trace-"+*workload+".json")
		if err := tr.write(path); err != nil {
			log.Fatal(err)
		}
		log.Printf("%d spans written to %s", len(tr.spans), path)
	}
	if *out != "" {
		if err := appendRecord(*out, *rec); err != nil {
			log.Fatal(err)
		}
	}
	printTable(rec)
	for _, p := range rec.Problems {
		fmt.Println("PROBLEM:", p)
	}
	line, err := json.Marshal(rec.report)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

func printTable(rec *record) {
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s seed %d, %.0f s, trace %v: %d attempted, %d failed\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Attempted, rec.Failed)
	for _, n := range names {
		fmt.Printf("  %-36s %14.4f %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
}

// run sets the system up, runs the workload's timed phase on the inputs
// and the output checks, and returns the metrics BENCHMARK.json names for
// this kind of run: end-to-end when untraced, per-layer when traced.
func run(sp *spec, in *inputs, workload string, seed int64, length time.Duration, traced bool, nsetup int) (*record, *tracer, error) {
	var sys *system
	var setupS []float64
	var err error
	for i := 0; i < nsetup; i++ {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		if sys, err = setUp(in); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer sys.close()

	b := &bench{in: in, sys: sys}
	if traced {
		b.tr = newTracer()
	}
	// The reference answers; this pass also fills the server's caches and
	// pools before anything is timed.
	if b.ref, err = sys.reference(in); err != nil {
		return nil, nil, err
	}
	sd := serverDelta{before: sys.srv.Metrics()}
	p, err := workloads[workload](b, length)
	if err != nil {
		return nil, nil, err
	}
	sd.after = sys.srv.Metrics()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	if p.check != nil {
		p.check()
	}

	vals := endToEnd(p)
	vals["setup_s"] = median(setupS)
	vals["heap_live_mb"] = float64(mem.HeapAlloc) / (1 << 20)
	posErr := vals["pos_err_m_p50"]
	specs := sp.EndToEnd
	if traced {
		vals = perLayer(b, p, sd, vals)
		specs = sp.PerLayer
	}

	rec := &record{Workload: workload, Seed: seed, Seconds: length.Seconds(), Trace: traced, Problems: p.problems}
	rec.Attempted, rec.Failed = p.attempted, p.failed
	rec.Metrics = map[string]metric{}
	for _, m := range specs {
		v, ok := vals[m.Name]
		if !ok {
			return nil, nil, fmt.Errorf("BENCHMARK.json names %q, which the benchmark does not measure", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rec.Problems = append(rec.Problems, fmt.Sprintf("%s has no value: no sample to take it from", m.Name))
			v = 0
		}
		rec.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	if n := p.mismatches + b.ref.mismatches; n > 0 {
		rec.Problems = append(rec.Problems, fmt.Sprintf("%d answers differ from in-process Server.Locate", n))
	}
	if limit := posErrLimit(workload); !(posErr <= limit) {
		rec.Problems = append(rec.Problems, fmt.Sprintf("median position error %.2f m, limit %.1f", posErr, limit))
	}
	rec.Correct = len(rec.Problems) == 0
	return rec, b.tr, nil
}

// posErrLimit is the median position error above which a run's answers
// count as wrong. The 48 viewpoints of the cold workloads average over
// every unique POI and sit near 0.5 m. A session walk circles two POIs
// only, and the POIs the wardrive sweeps last carry about a meter of map
// drift that ICP leaves in, so its median can be that meter.
func posErrLimit(workload string) float64 {
	if workload == "session_walk" {
		return 1.5
	}
	return 1.0
}

// endToEnd computes what a user of the system would see.
func endToEnd(p *phase) map[string]float64 {
	wins := windowed(p.samples, p.length)
	rateWins := wins
	if p.capacity != nil {
		rateWins = windowed(p.capacity, p.capacityLen)
	}
	var inTime, localized int
	var posErr []float64
	for _, s := range p.samples {
		if s.ok && s.ms <= sloMs {
			inTime++
		}
	}
	for _, s := range p.all() {
		if s.ok {
			localized++
			posErr = append(posErr, s.err)
		}
	}
	return map[string]float64{
		"latency_ms_p50":         quietLatency(wins),
		"poses_per_s":            quietRate(rateWins),
		"slo_met_ratio":          ratio(float64(inTime), float64(len(p.samples))),
		"localized_ratio":        ratio(float64(localized), float64(p.queries)),
		"upload_bytes_per_query": ratio(float64(p.uploadBytes), float64(p.queries)),
		"pos_err_m_p50":          median(posErr),
	}
}
