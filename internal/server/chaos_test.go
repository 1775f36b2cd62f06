package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"visualprint/internal/netsim"
	"visualprint/internal/testutil"
)

// TestChaosClientsSurviveFaultInjection drives a real server through the
// netsim fault-injection proxy while concurrent clients — armed with
// deadlines, retry policies and automatic redial — run a mixed workload.
// The network cycles through added latency, abrupt partitions, a
// blackholed link and refused reconnects. The contract under test:
//
//   - every error a client surfaces is one of the typed, documented
//     outcomes (a transport loss, a deadline, an overload shed, or a real
//     server answer) — never a hang, a misrouted response, or an untyped
//     failure;
//   - once the faults stop, every client recovers without intervention and
//     completes a clean request through the same handles;
//   - the server survives to drain gracefully, leaking no goroutines.
//
// The full cycle repeats for several seconds; -short runs one abbreviated
// round. Run it under -race: the chaos schedule is exactly the kind of
// concurrency that makes latent data races reachable.
func TestChaosClientsSurviveFaultInjection(t *testing.T) {
	testutil.CheckGoroutines(t)
	db, ms := lifecycleDB(t, 30*time.Millisecond) // fast solves: chaos targets the transport
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, routerFor(t, db))
	s.Log = nil
	t.Cleanup(func() { s.Close() })

	proxy, err := netsim.NewProxy(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	rounds, clients := 6, 4
	if testing.Short() {
		rounds, clients = 2, 2
	}

	var (
		successes atomic.Int64
		stop      = make(chan struct{})
		wg        sync.WaitGroup
	)
	errc := make(chan error, 256)
	// report classifies one operation's outcome: nil and the typed
	// lifecycle errors are expected under chaos; anything else fails.
	report := func(op string, err error) {
		switch {
		case err == nil:
			successes.Add(1)
		case errors.Is(err, ErrConnectionLost),
			errors.Is(err, context.DeadlineExceeded), // local or wire ErrDeadlineExceeded
			errors.Is(err, context.Canceled),
			errors.Is(err, ErrOverloaded),
			errors.Is(err, ErrTooFewMatches),
			errors.Is(err, ErrNoConsensus):
			// Documented outcomes under network chaos.
		default:
			select {
			case errc <- fmt.Errorf("%s: unexpected error %v", op, err):
			default:
			}
		}
	}

	policy := RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    80 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.5,
	}
	cs := make([]*Client, clients)
	for i := range cs {
		c, err := Dial(proxy.Addr(),
			WithRetryPolicy(policy),
			WithDialTimeout(2*time.Second),
			WithLogger(nil))
		if err != nil {
			t.Fatal(err)
		}
		cs[i] = c
		t.Cleanup(func() { c.Close() })
	}
	for i, c := range cs {
		wg.Add(1)
		go func(c *Client, seed int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				switch (seed + n) % 3 {
				case 0:
					_, err := c.Query(ctx, queryFromMappings(ms, 0, 48), testIntrinsics())
					report("query", err)
				case 1:
					_, err := c.Stats(ctx)
					report("stats", err)
				case 2:
					batch := []Mapping{{Pos: ms[0].Pos}}
					batch[0].Desc[0] = byte(seed)
					batch[0].Desc[1] = byte(n)
					_, err := c.Ingest(ctx, batch)
					report("ingest", err)
				}
				cancel()
			}
		}(c, i)
	}

	// The chaos schedule: each round degrades, partitions, blackholes and
	// refuses in turn, with healthy gaps so retries can land.
	for r := 0; r < rounds; r++ {
		proxy.SetLatency(20 * time.Millisecond)
		time.Sleep(150 * time.Millisecond)
		proxy.SetLatency(0)
		proxy.Sever()
		time.Sleep(100 * time.Millisecond)
		proxy.SetBlackhole(true)
		time.Sleep(150 * time.Millisecond)
		proxy.SetBlackhole(false)
		proxy.Sever() // blackholed conns carry poisoned state; cut them
		proxy.SetRefuse(true)
		time.Sleep(100 * time.Millisecond)
		proxy.SetRefuse(false)
		time.Sleep(150 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if successes.Load() == 0 {
		t.Error("no operation ever succeeded under chaos; the harness is not exercising the happy path")
	}

	// Faults cleared: every client must recover through its own handle.
	for i, c := range cs {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if _, err := c.Stats(ctx); err != nil {
			t.Errorf("client %d did not recover after chaos: %v", i, err)
		}
		cancel()
	}
	// And the server itself drains cleanly.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("post-chaos Shutdown: %v", err)
	}
}
