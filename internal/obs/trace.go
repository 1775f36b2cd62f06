package obs

import (
	"sync"
	"time"
)

// Stage identifies one phase of a server request in the per-request
// tracer. The set covers the paper's per-stage latency accounting: LSH
// candidate retrieval, spatial clustering and the pose solve on the query
// path (oracle scoring happens on the client), plus WAL append and snapshot
// serialization on the durability path.
type Stage int

const (
	StageLSHQuery Stage = iota
	StageCluster
	StagePoseSolve
	StageWALAppend
	StageSnapshot
	numStages
)

// String returns the stage's metric-name fragment.
func (s Stage) String() string {
	switch s {
	case StageLSHQuery:
		return "lsh_query"
	case StageCluster:
		return "cluster"
	case StagePoseSolve:
		return "pose_solve"
	case StageWALAppend:
		return "wal_append"
	case StageSnapshot:
		return "snapshot"
	default:
		return "unknown"
	}
}

// Trace accumulates the per-stage durations of one request. Traces are
// pooled by their Tracer: Begin hands one out, End returns it, and the
// steady-state cycle performs no heap allocation. A nil *Trace is a
// no-op, so stage recording can be unconditional in instrumented code.
type Trace struct {
	op     string
	start  time.Time
	stages [numStages]int64
}

// Stage adds d to the trace's accumulator for s.
func (tr *Trace) Stage(s Stage, d time.Duration) {
	if tr == nil {
		return
	}
	tr.stages[s] += d.Nanoseconds()
}

// StageSince adds the time elapsed since t0 to the accumulator for s.
func (tr *Trace) StageSince(s Stage, t0 time.Time) {
	if tr == nil {
		return
	}
	tr.stages[s] += time.Since(t0).Nanoseconds()
}

// slowRingSize bounds the retained slow-request log. 64 entries at a few
// hundred bytes each: enough recent history to diagnose a tail-latency
// episode, small enough to never matter.
const slowRingSize = 64

// SlowRequest is one retained slow request: when it started, what it was,
// how long it took, and where the time went.
type SlowRequest struct {
	Op       string `json:"op"`
	UnixNano int64  `json:"unix_nano"`
	TotalNs  int64  `json:"total_ns"`
	// StageNs breaks the total down by stage (stages that recorded no
	// time are omitted). Stage time can undershoot the total — glue code
	// and lock waits between stages belong to no stage.
	StageNs map[string]int64 `json:"stage_ns,omitempty"`
}

// slowEntry is the ring's allocation-free representation of a SlowRequest.
type slowEntry struct {
	op     string
	unix   int64
	total  int64
	stages [numStages]int64
}

// Tracer hands out pooled Traces and aggregates what they record: each
// stage feeds a per-stage histogram in the registry (stage_<name>_ns),
// and requests whose total latency crosses the slow threshold are copied
// into a fixed ring buffer with their stage breakdown. All methods are
// nil-receiver safe and the Begin/Stage/End cycle is allocation-free.
type Tracer struct {
	slowNs int64
	stage  [numStages]*Histogram
	pool   sync.Pool

	mu   sync.Mutex
	ring [slowRingSize]slowEntry
	next int
	n    int
}

// NewTracer creates a tracer whose stage histograms are registered in r
// as stage_<stage>_ns, and which retains requests slower than slow in its
// ring buffer. The tracer's slow log is included in r's Report.
func NewTracer(r *Registry, slow time.Duration) *Tracer {
	t := &Tracer{slowNs: slow.Nanoseconds()}
	t.pool.New = func() any { return new(Trace) }
	for s := Stage(0); s < numStages; s++ {
		t.stage[s] = r.Histogram("stage_" + s.String() + "_ns")
	}
	r.attachTracer(t)
	return t
}

// Begin starts a trace for one request. op labels the request in the slow
// log; use a constant string so the call stays allocation-free.
func (t *Tracer) Begin(op string) *Trace {
	if t == nil {
		return nil
	}
	tr := t.pool.Get().(*Trace)
	tr.op = op
	tr.start = time.Now()
	tr.stages = [numStages]int64{}
	return tr
}

// ObserveStage feeds one stage histogram directly, for request-scoped
// stages measured outside a full trace (e.g. oracle scoring in the
// in-process pipeline).
func (t *Tracer) ObserveStage(s Stage, d time.Duration) {
	if t == nil {
		return
	}
	t.stage[s].Observe(d.Nanoseconds())
}

// End finishes the trace: stage durations feed the stage histograms, the
// request lands in the slow ring if its total crosses the threshold, and
// the trace returns to the pool. It returns the request's total duration
// in nanoseconds (0 for a nil tracer or trace), which the caller can feed
// its own per-operation histogram.
func (t *Tracer) End(tr *Trace) int64 {
	if t == nil || tr == nil {
		return 0
	}
	total := time.Since(tr.start).Nanoseconds()
	for s, ns := range tr.stages {
		if ns > 0 {
			t.stage[s].Observe(ns)
		}
	}
	if total >= t.slowNs {
		t.mu.Lock()
		e := &t.ring[t.next]
		e.op = tr.op
		e.unix = tr.start.UnixNano()
		e.total = total
		e.stages = tr.stages
		t.next = (t.next + 1) % slowRingSize
		if t.n < slowRingSize {
			t.n++
		}
		t.mu.Unlock()
	}
	t.pool.Put(tr)
	return total
}

// Slow returns the retained slow requests, newest first.
func (t *Tracer) Slow() []SlowRequest {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SlowRequest, 0, t.n)
	for i := 0; i < t.n; i++ {
		e := &t.ring[(t.next-1-i+2*slowRingSize)%slowRingSize]
		sr := SlowRequest{Op: e.op, UnixNano: e.unix, TotalNs: e.total}
		for s, ns := range e.stages {
			if ns > 0 {
				if sr.StageNs == nil {
					sr.StageNs = make(map[string]int64)
				}
				sr.StageNs[Stage(s).String()] = ns
			}
		}
		out = append(out, sr)
	}
	return out
}
