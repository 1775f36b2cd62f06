package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	vp "visualprint"
)

const (
	arrivalRate  = 25.0                   // fingerprint_arrivals: requests per second, open loop
	sloMs        = 100.0                  // an answer later than this after it was due misses the limit
	framePeriod  = 100 * time.Millisecond // session_walk: 10 fps
	sessionSkew  = 50 * time.Millisecond  // session_walk: second session starts this much later
	ingestPeriod = 500 * time.Millisecond // wardrive_mix: one batch per period
)

var workloads = map[string]func(*bench, time.Duration) (*phase, error){
	"frame_walk":           (*bench).frameWalk,
	"fingerprint_arrivals": (*bench).fingerprintArrivals,
	"session_walk":         (*bench).sessionWalk,
	"wardrive_mix":         (*bench).wardriveMix,
}

// bench is one run: the inputs, the system they are sent to and what the
// run needs to check the answers.
type bench struct {
	in  *inputs
	sys *system
	ref *reference
	tr  *tracer
}

// phase is what a workload's timed part produced. Layer timings are not
// here: a traced run reads them off its spans.
type phase struct {
	length  time.Duration
	samples []sample // the workload's requests: latency_ms, pos_err, slo
	// capacity is the closed-loop samples poses_per_s is read from, when
	// they are not the same as samples (fingerprint_arrivals).
	capacity    []sample
	capacityLen time.Duration

	attempted, failed int
	queries           int   // localization requests sent
	uploadBytes       int64 // Client.BytesSent delta of the connections that sent them
	mismatches        int   // answers that differ from the in-process reference
	problems          []string

	extracted, kept int // keypoints out of sift, keypoints core kept (frame_walk)
	backlog         int // open loop: requests unanswered when the schedule ends
	// wardrive_mix.
	ingestAckMs, syncMs []float64
	syncBytes           int64
	// check, when set, runs the workload's own output checks after the
	// run has read the heap.
	check func()
}

// all is every localization request of the phase.
func (p *phase) all() []sample {
	return append(p.samples[:len(p.samples):len(p.samples)], p.capacity...)
}

// recorder collects samples from the goroutines of a phase.
type recorder struct {
	mu sync.Mutex
	p  *phase
}

// answer files one localization request. ref is the answer the request
// must match bit for bit, or nil when the workload makes no such promise
// (warm-started sessions, a map that is being written to).
func (r *recorder) answer(dst *[]sample, at, lat time.Duration, v *view, res vp.LocateResult, err error, ref *vp.LocateResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.p.attempted++
	r.p.queries++
	s := sample{at: at, ms: ms(lat), ok: err == nil}
	if err != nil {
		r.p.failed++
		if len(r.p.problems) < 5 {
			r.p.problems = append(r.p.problems, fmt.Sprintf("query failed: %v", err))
		}
	} else {
		s.err = res.Position.Dist(v.cam.Pos)
		if ref != nil && !sameAnswer(res, *ref) {
			r.p.mismatches++
		}
	}
	*dst = append(*dst, s)
}

func bytesSent(cs []*vp.Client) int64 {
	var n int64
	for _, c := range cs {
		n += c.BytesSent()
	}
	return n
}

// frameWalk: closed loop, one client, one connection. Every frame goes
// through the whole client pipeline, extract, select, query, and the next
// starts when its pose is back. The only workload where sift and core work
// inside the timed span, and the paper's own unit (Fig 7, Fig 16).
func (b *bench) frameWalk(length time.Duration) (*phase, error) {
	p := &phase{length: length}
	rec := &recorder{p: p}
	c := b.sys.clients[0]
	sc := siftConfig()
	sent0 := c.BytesSent()
	start := time.Now()
	b.tr.begin(start)
	for i := 0; time.Since(start) < length; i++ {
		vi := i % len(b.in.views)
		v := &b.in.views[vi]
		t0 := time.Now()
		kps := vp.ExtractKeypoints(v.frame.Image, sc)
		t1 := time.Now()
		fp, err := b.sys.oracle.SelectUnique(kps, selectCount)
		if err != nil {
			return nil, fmt.Errorf("select: %w", err)
		}
		t2 := time.Now()
		ctx, cancel := rpcCtx()
		res, err := c.Query(ctx, fp, v.intr)
		cancel()
		t3 := time.Now()
		rec.answer(&p.samples, t0.Sub(start), t3.Sub(t0), v, res, err, &b.ref.answers[vi])
		if b.tr != nil {
			// The frame span runs on until the answer is checked and filed;
			// what its children leave uncovered is the harness's own time.
			id := b.tr.add(0, i+1, "frame", t0, time.Now())
			b.tr.add(id, i+1, "extract", t0, t1)
			b.tr.add(id, i+1, "select", t1, t2)
			b.tr.add(id, i+1, "rtt", t2, t3)
		}
		p.extracted += len(kps)
		p.kept += len(fp)
	}
	p.uploadBytes = c.BytesSent() - sent0
	return p, nil
}

// closedLoop runs one querying goroutine per client until length has
// passed, each sending pre-extracted fingerprints back to back. ref says
// whether answers must match the in-process reference.
func (b *bench) closedLoop(rec *recorder, dst *[]sample, clients []*vp.Client, length time.Duration, ref bool) {
	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *vp.Client) {
			defer wg.Done()
			for i := ci * len(b.in.views) / len(clients); time.Since(start) < length; i++ {
				vi := i % len(b.in.views)
				v := &b.in.views[vi]
				t0 := time.Now()
				ctx, cancel := rpcCtx()
				res, err := c.Query(ctx, v.fp, v.intr)
				cancel()
				t1 := time.Now()
				var want *vp.LocateResult
				if ref {
					want = &b.ref.answers[vi]
				}
				rec.answer(dst, t0.Sub(start), t1.Sub(t0), v, res, err, want)
				b.tr.add(0, ci*1_000_000+i+1, "rtt", t0, t1)
			}
		}(ci, c)
	}
	wg.Wait()
}

// paced sends request i of a schedule at start+due(i): without waiting for
// earlier answers when async is set (open loop), after the previous answer
// when not (a device that captures frames on a clock but keeps one request
// in flight). Latency counts from the due time either way, so a stall is
// charged to every request it delayed. The returned wait blocks until every
// request sent has been answered.
func (b *bench) paced(rec *recorder, start time.Time, reqBase, n int, due func(i int) time.Duration, async bool,
	send func(i int) (*view, vp.LocateResult, error, *vp.LocateResult)) (wait func()) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		dueAt := start.Add(due(i))
		if d := time.Until(dueAt); d > 0 {
			time.Sleep(d)
		}
		sentAt := time.Now()
		one := func(i int) {
			v, res, err, want := send(i)
			done := time.Now()
			rec.answer(&rec.p.samples, dueAt.Sub(start), done.Sub(dueAt), v, res, err, want)
			if b.tr != nil {
				id := b.tr.add(0, reqBase+i+1, "request", dueAt, done)
				b.tr.add(id, reqBase+i+1, "late", dueAt, sentAt)
				b.tr.add(id, reqBase+i+1, "rtt", sentAt, done)
			}
		}
		if !async {
			one(i)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			one(i)
		}(i)
	}
	return wg.Wait
}

// fingerprintArrivals: open loop. Independent AR users do not wait for
// each other, so one dispatcher fires pre-extracted fingerprints at a fixed
// 25 per second over the connections, for two thirds of the run; sift and
// core do nothing. The last third is a closed loop on every connection,
// which reads off the capacity the fixed rate is a share of.
func (b *bench) fingerprintArrivals(length time.Duration) (*phase, error) {
	open := length * 2 / 3
	p := &phase{length: open, capacityLen: length - open}
	rec := &recorder{p: p}
	cs := b.sys.clients
	sent0 := bytesSent(cs)
	n := int(open.Seconds() * arrivalRate)
	start := time.Now()
	b.tr.begin(start)
	wait := b.paced(rec, start, 0, n,
		func(i int) time.Duration { return time.Duration(float64(i) / arrivalRate * float64(time.Second)) },
		true,
		func(i int) (*view, vp.LocateResult, error, *vp.LocateResult) {
			vi := i % len(b.in.views)
			v := &b.in.views[vi]
			ctx, cancel := rpcCtx()
			defer cancel()
			res, err := cs[i%len(cs)].Query(ctx, v.fp, v.intr)
			return v, res, err, &b.ref.answers[vi]
		})
	if d := time.Until(start.Add(open)); d > 0 {
		time.Sleep(d)
	}
	// Every request was due before now; what is unanswered is backlog.
	rec.mu.Lock()
	p.backlog = n - len(p.samples)
	rec.mu.Unlock()
	wait()
	b.closedLoop(rec, &p.capacity, cs, p.capacityLen, true)
	p.uploadBytes = bytesSent(cs) - sent0
	return p, nil
}

// sessionWalk: the same server layers used differently. Two devices, one
// connection each, circle an exhibit at 10 frames per second in real time
// (the server's motion model reads the wall clock), each inside its own
// Client.Session, so most pose solves start warm and lsh and track carry
// the request. A gain on the cold path that costs the warm path shows here.
func (b *bench) sessionWalk(length time.Duration) (*phase, error) {
	p := &phase{length: length}
	rec := &recorder{p: p}
	cs := b.sys.clients
	sent0 := bytesSent(cs)
	start := time.Now()
	b.tr.begin(start)
	var wg sync.WaitGroup
	for si, walk := range b.in.walks {
		c := cs[si%len(cs)]
		skew := time.Duration(si) * sessionSkew
		n := int((length - skew) / framePeriod)
		wg.Add(1)
		go func(si int, walk []int, sess vp.SessionHandle) {
			defer wg.Done()
			b.paced(rec, start, si*1_000_000, n,
				func(i int) time.Duration { return skew + time.Duration(i)*framePeriod },
				false,
				func(i int) (*view, vp.LocateResult, error, *vp.LocateResult) {
					// There and back: 0..n-1, n-2..1, 0..
					k := i % (2*len(walk) - 2)
					if k >= len(walk) {
						k = 2*len(walk) - 2 - k
					}
					v := &b.in.views[walk[k]]
					ctx, cancel := rpcCtx()
					defer cancel()
					res, err := sess.Query(ctx, v.fp, v.intr)
					return v, res, err, nil
				})
		}(si, walk, c.Session())
	}
	wg.Wait()
	p.uploadBytes = bytesSent(cs) - sent0
	return p, nil
}

// wardriveMix: writes beside reads. Connection A localizes in a closed
// loop while connection B, a wardriving device, ingests a 40-mapping batch
// every half second and then brings its oracle up to date. The only
// workload that exercises the double-generation ingest, epoch bumps and
// oracle delta chains while the read path is busy.
func (b *bench) wardriveMix(length time.Duration) (*phase, error) {
	p := &phase{length: length}
	rec := &recorder{p: p}
	reader, writer := b.sys.clients[0], b.sys.clients[len(b.sys.clients)-1]
	held := writer.OracleSync()
	ctx, cancel := rpcCtx()
	_, err := held.Sync(ctx) // the full download; the timed syncs ride on it
	cancel()
	if err != nil {
		return nil, fmt.Errorf("oracle sync: %w", err)
	}
	syncBytes0 := held.TransferBytes()
	sent0 := reader.BytesSent()

	var wg sync.WaitGroup
	start := time.Now()
	b.tr.begin(start)
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.closedLoop(rec, &p.samples, []*vp.Client{reader}, length, false)
	}()
	batches := int(length / ingestPeriod)
	for i := 0; i < batches; i++ {
		if d := time.Until(start.Add(time.Duration(i) * ingestPeriod)); d > 0 {
			time.Sleep(d)
		}
		b.ingestAndSync(rec, writer, held, i)
	}
	wg.Wait()
	p.uploadBytes = reader.BytesSent() - sent0
	p.syncBytes = held.TransferBytes() - syncBytes0
	p.check = func() { b.checkMix(p, held, batches) }
	return p, nil
}

// ingestAndSync is one write of wardrive_mix. A failed write is counted
// and the run goes on; the mapping count checked at the end will be short.
func (b *bench) ingestAndSync(rec *recorder, c *vp.Client, held *vp.OracleSync, i int) {
	t0 := time.Now()
	ctx, cancel := rpcCtx()
	_, ierr := c.Ingest(ctx, b.in.second[i%len(b.in.second)])
	cancel()
	t1 := time.Now()
	ctx, cancel = rpcCtx()
	_, serr := held.Sync(ctx)
	cancel()
	t2 := time.Now()
	if b.tr != nil {
		id := b.tr.add(0, -(i + 1), "update", t0, t2)
		b.tr.add(id, -(i + 1), "ingest", t0, t1)
		b.tr.add(id, -(i + 1), "sync", t1, t2)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.p.attempted += 2
	rec.p.ingestAckMs = append(rec.p.ingestAckMs, ms(t1.Sub(t0)))
	rec.p.syncMs = append(rec.p.syncMs, ms(t2.Sub(t1)))
	for _, err := range []error{ierr, serr} {
		if err != nil {
			rec.p.failed++
			rec.p.problems = append(rec.p.problems, fmt.Sprintf("update %d: %v", i, err))
		}
	}
}

// checkMix checks what wardrive_mix promises once it is over: every acked
// mapping is counted, the wire still answers as the server does in process
// on the grown map, and the oracle that was patched by deltas selects the
// same fingerprints as one downloaded whole.
func (b *bench) checkMix(p *phase, held *vp.OracleSync, batches int) {
	fail := func(format string, args ...any) { p.problems = append(p.problems, fmt.Sprintf(format, args...)) }
	c := b.sys.clients[0]
	ctx, cancel := rpcCtx()
	got, err := c.Stats(ctx)
	cancel()
	if want := b.sys.base + uint64(batches*mixBatch); err != nil || got != want {
		fail("server holds %d mappings (err %v), want %d", got, err, want)
	}
	ctx, cancel = rpcCtx()
	fresh, err := c.OracleSync().Sync(ctx)
	cancel()
	if err != nil {
		fail("fresh oracle sync: %v", err)
		return
	}
	after, err := b.sys.reference(b.in)
	if err != nil {
		fail("%v", err)
		return
	}
	p.mismatches += after.mismatches
	for i, v := range b.in.views {
		a, aerr := held.Oracle().SelectUnique(v.kps, selectCount)
		f, ferr := fresh.SelectUnique(v.kps, selectCount)
		if aerr != nil || ferr != nil || !slices.Equal(a, f) {
			fail("view %d: delta-synced and freshly downloaded oracle select different fingerprints", i)
		}
	}
}
