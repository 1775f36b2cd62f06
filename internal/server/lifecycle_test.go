package server

import (
	"context"
	"errors"
	"net"
	"sort"
	"testing"
	"time"

	"visualprint/internal/codec"
	"visualprint/internal/testutil"
)

// lifecycleDB builds a database whose pose solves run for a controlled
// number of DE generations (~0.5 ms each, no convergence cutoff, no
// wall-clock budget), so tests can make a Locate effectively endless or
// merely slow. The mappings follow the syntheticDB layout: a tight cluster
// (queries against it reach the pose solver) plus scatter.
func lifecycleDB(t testing.TB, iterations int) (*Database, []Mapping) {
	t.Helper()
	cfg := DefaultDatabaseConfig()
	cfg.Pose.Deadline = 0
	cfg.Pose.Tol = 0
	cfg.Pose.MaxIterations = iterations
	db, err := NewDatabase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, ms := syntheticDB(t, 21, 0, 48, 40)
	if err := db.Ingest(context.Background(), ms); err != nil {
		t.Fatal(err)
	}
	return db, ms
}

// endlessIters makes a solve run minutes — every test using it must cancel
// the request (or force-drain the server); assertions then prove the
// cancellation actually cut the work short.
const endlessIters = 500_000

// TestLocateCanceledContext: a pre-canceled context stops Locate before
// any work, typed and matching both the sentinel and the stdlib identity.
func TestLocateCanceledContext(t *testing.T) {
	db, ms := lifecycleDB(t, endlessIters)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := db.Locate(ctx, queryFromMappings(ms, 0, 48), testIntrinsics())
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want ErrCanceled matching context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("canceled Locate took %v", d)
	}
}

// TestLocateDeadlineMidSolve: a deadline expiring inside the DE loop stops
// the solve within a generation instead of running out the iteration
// budget (which would take minutes at endlessIters).
func TestLocateDeadlineMidSolve(t *testing.T) {
	db, ms := lifecycleDB(t, endlessIters)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := db.Locate(ctx, queryFromMappings(ms, 0, 48), testIntrinsics())
	if !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want ErrDeadlineExceeded matching context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("deadline-bound Locate took %v", d)
	}
}

// TestCancelFreesServerSlot is the acceptance test for request
// cancellation: with a single execution slot occupied by an effectively
// endless solve, canceling the client context must send a cancel frame
// that frees the slot — a second request then completes promptly, minutes
// before the first solve could have finished on its own.
func TestCancelFreesServerSlot(t *testing.T) {
	testutil.CheckGoroutines(t)
	db, ms := lifecycleDB(t, endlessIters)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, routerFor(t, db), WithMaxInFlight(1))
	s.Log = nil
	t.Cleanup(func() { s.Close() })
	c := dialClient(t, s)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.Query(ctx, queryFromMappings(ms, 0, 48), testIntrinsics())
		errc <- err
	}()
	// Wait until the endless query actually holds the execution slot.
	for i := 0; len(s.sem) == 0; i++ {
		if i > 500 {
			t.Fatal("query never took the execution slot")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query returned %v, want context.Canceled", err)
	}
	// The slot must come free long before the abandoned solve's iteration
	// budget (minutes) could elapse: a 2-keypoint query fails the match
	// gate quickly once admitted.
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background(), queryFromMappings(ms, 0, 2), testIntrinsics())
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTooFewMatches) {
			t.Fatalf("follow-up query returned %v, want ErrTooFewMatches", err)
		}
		t.Logf("slot freed and follow-up served in %v", time.Since(start))
	case <-time.After(30 * time.Second):
		t.Fatal("slot never freed after cancel; follow-up query still queued")
	}
}

// TestDeadlineEnforcedServerSide drives the wire protocol directly: a
// request header with a 50 ms deadline on a query whose solve
// would take minutes. The server must answer — typed — shortly after the
// deadline, proving enforcement happens server-side (the test's own
// context never expires).
func TestDeadlineEnforcedServerSide(t *testing.T) {
	testutil.CheckGoroutines(t)
	db, ms := lifecycleDB(t, endlessIters)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, routerFor(t, db))
	s.Log = nil
	t.Cleanup(func() { s.Close() })

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writePreamble(conn); err != nil {
		t.Fatal(err)
	}
	payload := encodeQuery(testIntrinsics(), codec.MarshalKeypoints(queryFromMappings(ms, 0, 48)))
	if _, err := writeFrame(conn, 7, msgQuery, reqHeader{deadline: 50}, payload); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	id, typ, resp, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 || typ != msgError {
		t.Fatalf("got frame id=%d type=%d, want id=7 msgError", id, typ)
	}
	werr := decodeErrorPayload(resp)
	if !errors.Is(werr, ErrDeadlineExceeded) || !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("wire error %v, want ErrDeadlineExceeded matching context.DeadlineExceeded", werr)
	}
}

// TestShedUnderBurst is the overload acceptance test: with every execution
// slot busy and a zero-depth queue, requests must be refused with the
// typed ErrOverloaded, and fast — the shed path does no pipeline work, so
// its median wire round trip stays under 10 ms. The slot is occupied
// directly (it is a plain semaphore) rather than by a CPU-burning solve,
// so the measurement isolates the shed path from single-core scheduler
// starvation.
func TestShedUnderBurst(t *testing.T) {
	testutil.CheckGoroutines(t)
	db, ms := lifecycleDB(t, 400)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, routerFor(t, db), WithMaxInFlight(1), WithQueueDepth(0))
	s.Log = nil
	t.Cleanup(func() { s.Close() })
	c := dialClient(t, s)

	s.sem <- struct{}{} // saturate: every slot taken
	const n = 21
	lat := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		_, err := c.Query(context.Background(), queryFromMappings(ms, 0, 2), testIntrinsics())
		lat = append(lat, time.Since(start))
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("burst query %d: got %v, want ErrOverloaded", i, err)
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if med := lat[n/2]; med > 10*time.Millisecond {
		t.Errorf("median shed latency %v, want < 10ms (all: %v)", med, lat)
	}
	<-s.sem // release: the server must serve normally again
	if _, err := c.Query(context.Background(), queryFromMappings(ms, 0, 2), testIntrinsics()); !errors.Is(err, ErrTooFewMatches) {
		t.Fatalf("post-overload query returned %v, want ErrTooFewMatches", err)
	}
}

// TestRetryRecoversFromOverload: a client with a retry policy sees through
// a transient overload — its shed request is retried with backoff and
// ultimately gets the server's real answer, while a non-retryable answer
// (ErrTooFewMatches) is never retried.
func TestRetryRecoversFromOverload(t *testing.T) {
	testutil.CheckGoroutines(t)
	db, ms := lifecycleDB(t, endlessIters)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, routerFor(t, db), WithMaxInFlight(1), WithQueueDepth(0))
	s.Log = nil
	t.Cleanup(func() { s.Close() })

	c, err := Dial(s.Addr().String(), WithRetryPolicy(RetryPolicy{
		MaxAttempts: 10,
		BaseDelay:   25 * time.Millisecond,
		MaxDelay:    100 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.5,
	}), WithLogger(nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	ctx, cancel := context.WithCancel(context.Background())
	occupied := make(chan error, 1)
	go func() {
		_, err := c.Query(ctx, queryFromMappings(ms, 0, 48), testIntrinsics())
		occupied <- err
	}()
	for i := 0; len(s.sem) == 0; i++ {
		if i > 500 {
			t.Fatal("query never took the execution slot")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Free the slot while the retrying query is mid-backoff.
	go func() {
		time.Sleep(60 * time.Millisecond)
		cancel()
	}()
	_, qerr := c.Query(context.Background(), queryFromMappings(ms, 0, 2), testIntrinsics())
	if !errors.Is(qerr, ErrTooFewMatches) {
		t.Fatalf("retried query returned %v, want ErrTooFewMatches after overload cleared", qerr)
	}
	if err := <-occupied; !errors.Is(err, context.Canceled) {
		t.Fatalf("occupying query returned %v, want context.Canceled", err)
	}
}

// TestShutdownDrains: in-flight work finishes with its response delivered,
// new requests are refused with the typed ErrShuttingDown, and Shutdown
// returns nil on the clean drain.
func TestShutdownDrains(t *testing.T) {
	testutil.CheckGoroutines(t)
	db, ms := lifecycleDB(t, 400) // ~a few hundred ms per solve
	want, wantErr := db.Locate(context.Background(), queryFromMappings(ms, 0, 48), testIntrinsics())
	if wantErr != nil {
		t.Fatal(wantErr)
	}
	want.Generations = 0 // in-process only, not carried on the wire
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, routerFor(t, db))
	s.Log = nil
	t.Cleanup(func() { s.Close() })
	c := dialClient(t, s)

	type result struct {
		res LocateResult
		err error
	}
	resc := make(chan result, 1)
	go func() {
		res, err := c.Query(context.Background(), queryFromMappings(ms, 0, 48), testIntrinsics())
		resc <- result{res, err}
	}()
	// Wait for the query to be admitted, then drain underneath it.
	for i := 0; ; i++ {
		s.mu.Lock()
		n := s.nreq
		s.mu.Unlock()
		if n > 0 {
			break
		}
		if i > 500 {
			t.Fatal("query never admitted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- s.Shutdown(context.Background()) }()
	// Once draining, a fresh request on the still-open connection must be
	// refused with the typed sentinel.
	for i := 0; ; i++ {
		s.mu.Lock()
		d := s.draining
		s.mu.Unlock()
		if d {
			break
		}
		if i > 500 {
			t.Fatal("server never started draining")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := c.Query(context.Background(), queryFromMappings(ms, 0, 2), testIntrinsics()); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("query during drain returned %v, want ErrShuttingDown", err)
	}
	r := <-resc
	if r.err != nil {
		t.Fatalf("in-flight query failed during drain: %v", r.err)
	}
	if r.res != want {
		t.Fatalf("drained query result %+v, want %+v", r.res, want)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("clean Shutdown returned %v", err)
	}
}

// TestShutdownForcedCancelsInFlight: when the drain deadline expires, the
// remaining in-flight request is canceled — its typed ErrCanceled response
// still reaches the client before the connection closes — and Shutdown
// reports the forced drain via ctx.Err().
func TestShutdownForcedCancelsInFlight(t *testing.T) {
	testutil.CheckGoroutines(t)
	db, ms := lifecycleDB(t, endlessIters)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, routerFor(t, db))
	s.Log = nil
	t.Cleanup(func() { s.Close() })
	c := dialClient(t, s)

	errc := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background(), queryFromMappings(ms, 0, 48), testIntrinsics())
		errc <- err
	}()
	for i := 0; ; i++ {
		s.mu.Lock()
		n := s.nreq
		s.mu.Unlock()
		if n > 0 {
			break
		}
		if i > 500 {
			t.Fatal("query never admitted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced Shutdown returned %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("forced Shutdown took %v; in-flight work did not unwind", d)
	}
	if err := <-errc; !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("in-flight query returned %v, want wire ErrCanceled matching context.Canceled", err)
	}
}

// TestDrainTimeoutOption: WithDrainTimeout bounds a deadline-less Shutdown
// the same way an expiring context does.
func TestDrainTimeoutOption(t *testing.T) {
	testutil.CheckGoroutines(t)
	db, ms := lifecycleDB(t, endlessIters)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, routerFor(t, db), WithDrainTimeout(200*time.Millisecond))
	s.Log = nil
	t.Cleanup(func() { s.Close() })
	c := dialClient(t, s)

	errc := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background(), queryFromMappings(ms, 0, 48), testIntrinsics())
		errc <- err
	}()
	for i := 0; ; i++ {
		s.mu.Lock()
		n := s.nreq
		s.mu.Unlock()
		if n > 0 {
			break
		}
		if i > 500 {
			t.Fatal("query never admitted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := s.Shutdown(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain-timeout Shutdown returned %v, want context.DeadlineExceeded", err)
	}
	if err := <-errc; !errors.Is(err, ErrCanceled) {
		t.Fatalf("in-flight query returned %v, want ErrCanceled", err)
	}
}
