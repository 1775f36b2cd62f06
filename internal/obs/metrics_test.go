package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"visualprint/internal/testutil"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("reqs") != c {
		t.Error("Counter not idempotent")
	}
	g := r.Gauge("inflight")
	g.Add(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Errorf("gauge = %d, want 2", got)
	}
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	c.Inc()
	c.Add(2)
	g.Set(1)
	g.Add(1)
	h.Observe(5)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil instruments recorded something")
	}
	if got := r.Report(); got.Counters != nil {
		t.Error("nil registry Report not zero")
	}
	var tr *Tracer
	trace := tr.Begin("op")
	if trace != nil {
		t.Error("nil tracer Begin returned a trace")
	}
	trace.Stage(StageLSHQuery, time.Millisecond)
	trace.StageSince(StageCluster, time.Now())
	if tr.End(trace) != 0 || tr.Slow() != nil {
		t.Error("nil tracer End/Slow not zero")
	}
	tr.ObserveStage(StagePoseSolve, time.Second)
}

func TestHistogramBucketing(t *testing.T) {
	for _, tc := range []struct {
		v    int64
		want int
	}{{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {1 << 40, 41}, {math.MaxInt64, 63}} {
		if got := bucketOf(tc.v); got != tc.want {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
	// Bounds must tile the non-negative int64 range without gaps.
	for i := 1; i < histBuckets; i++ {
		lo, hi := bucketBounds(i)
		ploLo, prevHi := bucketBounds(i - 1)
		_ = ploLo
		if lo != prevHi+1 {
			t.Errorf("bucket %d starts at %d, previous ends at %d", i, lo, prevHi)
		}
		if bucketOf(lo) != i || (hi != math.MaxInt64 && bucketOf(hi) != i) {
			t.Errorf("bucket %d bounds [%d,%d] do not map back", i, lo, hi)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	// 1000 samples uniform on [1ms, 2ms): p50 ~ 1.5ms within one bucket's
	// interpolation error (the whole range is inside bucket 21).
	for i := 0; i < 1000; i++ {
		h.Observe(1_000_000 + int64(i)*1_000)
	}
	if got := h.Count(); got != 1000 {
		t.Fatalf("count = %d", got)
	}
	p50 := h.Quantile(0.5)
	// All mass is in the [2^20, 2^21) bucket; interpolation assumes a
	// uniform spread over the bucket, so the estimate can be anywhere in
	// it — just require it lands in the observed bucket and ordering holds.
	if p50 < 1<<20 || p50 >= 1<<21 {
		t.Errorf("p50 = %d, outside the populated bucket", p50)
	}
	if h.Quantile(0.99) < p50 {
		t.Error("p99 < p50")
	}
	if got, want := h.Max(), int64(1_999_000); got != want {
		t.Errorf("max = %d, want %d", got, want)
	}
	if st := h.Stats(); st.Count != 1000 || st.Max != 1_999_000 || st.P99 < st.P50 {
		t.Errorf("stats inconsistent: %+v", st)
	}
	// Quantiles never exceed the observed max, even for the top bucket.
	h2 := &Histogram{}
	h2.Observe(5)
	if got := h2.Quantile(0.99); got > 5 {
		t.Errorf("p99 of a single 5 = %d", got)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Errorf("count = %d, want 8000", got)
	}
}

func TestReportRoundTripsThroughJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_query").Add(12)
	r.Gauge("inflight").Set(3)
	r.Histogram("locate_ns").Observe(1_500_000)
	tr := NewTracer(r, 0) // slow threshold 0: everything is "slow"
	trace := tr.Begin("locate")
	trace.Stage(StageLSHQuery, 2*time.Millisecond)
	trace.Stage(StagePoseSolve, 5*time.Millisecond)
	tr.End(trace)

	rep := r.Report()
	if rep.Counters["requests_query"] != 12 || rep.Gauges["inflight"] != 3 {
		t.Errorf("report missing instruments: %+v", rep)
	}
	if rep.Histograms["locate_ns"].Count != 1 {
		t.Errorf("histogram missing: %+v", rep.Histograms)
	}
	if len(rep.Slow) != 1 || rep.Slow[0].Op != "locate" {
		t.Fatalf("slow log: %+v", rep.Slow)
	}
	if rep.Slow[0].StageNs["lsh_query"] < int64(2*time.Millisecond) {
		t.Errorf("stage breakdown lost: %+v", rep.Slow[0].StageNs)
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["requests_query"] != 12 || len(back.Slow) != 1 ||
		back.Slow[0].StageNs["pose_solve"] != rep.Slow[0].StageNs["pose_solve"] {
		t.Errorf("JSON round trip lost data: %+v", back)
	}
}

func TestTracerSlowRingEvictsOldest(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r, 0)
	ops := []string{"a", "b"}
	for i := 0; i < slowRingSize+10; i++ {
		trace := tr.Begin(ops[i%2])
		tr.End(trace)
	}
	slow := tr.Slow()
	if len(slow) != slowRingSize {
		t.Fatalf("ring holds %d, want %d", len(slow), slowRingSize)
	}
	// Newest first: entry 0 is the last End.
	if slow[0].Op != ops[(slowRingSize+9)%2] {
		t.Errorf("newest entry is %q", slow[0].Op)
	}
}

func TestTracerThresholdFiltersFastRequests(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r, time.Hour)
	trace := tr.Begin("fast")
	trace.Stage(StageCluster, time.Microsecond)
	if total := tr.End(trace); total <= 0 {
		t.Errorf("End returned %d", total)
	}
	if got := tr.Slow(); len(got) != 0 {
		t.Errorf("fast request retained: %+v", got)
	}
	// Stage histograms still fed.
	if r.Histogram("stage_cluster_ns").Count() != 1 {
		t.Error("stage histogram not fed for fast request")
	}
}

func TestLoggerLevelsAndCapture(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, LevelWarn)
	l.Debugf("nope %d", 1)
	l.Infof("nope %d", 2)
	l.Warnf("yes %d", 3)
	l.Errorf("yes %d", 4)
	out := buf.String()
	if strings.Contains(out, "nope") {
		t.Errorf("below-threshold lines emitted: %q", out)
	}
	if !strings.Contains(out, "WARN yes 3") || !strings.Contains(out, "ERROR yes 4") {
		t.Errorf("missing lines: %q", out)
	}

	var got []string
	fl := FuncLogger(func(format string, args ...any) {
		got = append(got, format)
	})
	fl.Debugf("captured")
	if len(got) != 1 || got[0] != "captured" {
		t.Errorf("FuncLogger capture: %v", got)
	}

	Discard.Errorf("dropped")
	var nilLogger *Logger
	nilLogger.Warnf("dropped too")

	if _, err := ParseLevel("warn"); err != nil {
		t.Error(err)
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted garbage")
	}
}

func TestDebugMuxServesMetricsJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_query").Add(2)
	srv := httptest.NewServer(DebugMux(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Counters["requests_query"] != 2 {
		t.Errorf("debug endpoint report: %+v", rep)
	}
	// pprof index must be mounted too.
	pp, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != 200 {
		t.Errorf("pprof index status %d", pp.StatusCode)
	}
}

// TestRecordPathZeroAllocs pins the whole record surface — counter add,
// gauge set, histogram observe, and a full tracer Begin/Stage/End cycle —
// at zero steady-state heap allocations, the contract that lets these
// instruments sit inside Locate without disturbing it.
func TestRecordPathZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; see testutil.RaceEnabled")
	}
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	tr := NewTracer(r, time.Hour)
	// Warm the trace pool.
	tr.End(tr.Begin("warm"))

	if allocs := testing.AllocsPerRun(200, func() {
		c.Inc()
		c.Add(3)
		g.Set(9)
		g.Add(-1)
		h.Observe(123456)
	}); allocs != 0 {
		t.Errorf("counter/gauge/histogram record path allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		trace := tr.Begin("locate")
		trace.Stage(StageLSHQuery, 5*time.Microsecond)
		trace.StageSince(StagePoseSolve, time.Now())
		h.Observe(tr.End(trace))
	}); allocs != 0 {
		t.Errorf("tracer cycle allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSlowPathZeroAllocs: even a request that lands in the slow ring must
// not allocate — the ring is fixed storage, copied into, never grown.
func TestSlowPathZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; see testutil.RaceEnabled")
	}
	r := NewRegistry()
	tr := NewTracer(r, 0) // every request is slow
	tr.End(tr.Begin("warm"))
	if allocs := testing.AllocsPerRun(200, func() {
		trace := tr.Begin("slow")
		trace.Stage(StageWALAppend, time.Millisecond)
		tr.End(trace)
	}); allocs != 0 {
		t.Errorf("slow-ring record path allocates %.1f objects/op, want 0", allocs)
	}
}
