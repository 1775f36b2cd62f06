package bench

// Multi-client query throughput over the multiplexed wire protocol —
// not a paper figure, but the scaling experiment behind the ROADMAP's
// production-service goal: with per-request dispatch on the server and
// request-ID demultiplexing in the client, localization throughput should
// scale with cores instead of serializing per connection.

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"visualprint/internal/pose"
	"visualprint/internal/scene"
	"visualprint/internal/server"
	"visualprint/internal/sift"
)

// throughputQuery is one prepared localization request.
type throughputQuery struct {
	kps  []sift.Keypoint
	intr pose.Intrinsics
}

// prepareQueries renders query viewpoints in the run's venue and performs
// the client-side oracle selection once, so the measured loop contains only
// wire round-trips and server work.
func prepareQueries(run *venueRun, sc Scale, n int) ([]throughputQuery, error) {
	pois := run.world.POIsOfKind(scene.POIUnique)
	if len(pois) == 0 {
		return nil, fmt.Errorf("bench: venue %s has no unique POIs", run.world.Name)
	}
	cfg := siftConfig()
	var qs []throughputQuery
	for i := 0; len(qs) < n && i < 4*n; i++ {
		poi := pois[(i*5)%len(pois)]
		cam := scene.CameraFacing(run.world, poi, 3.0, 0.2*float64(i%3-1), -0.05, sc.ImgW, sc.ImgH)
		fr, err := scene.Render(run.world, cam)
		if err != nil {
			return nil, err
		}
		kps := sift.Detect(fr.Image, cfg)
		if len(kps) < 15 {
			continue
		}
		sel, err := run.oracle.SelectUnique(kps, 200)
		if err != nil {
			return nil, err
		}
		qs = append(qs, throughputQuery{
			kps:  sel,
			intr: pose.Intrinsics{W: cam.W, H: cam.H, FovX: cam.FovX, FovY: cam.FovY()},
		})
	}
	if len(qs) == 0 {
		return nil, fmt.Errorf("bench: no usable query views in %s", run.world.Name)
	}
	return qs, nil
}

// QueryThroughput measures end-to-end localization queries per second
// against a live TCP server as the number of concurrent clients grows from
// 1 to maxClients (doubling). Each client issues queriesPerClient pipelined
// requests over its own connection; remote no-consensus errors count as
// served requests (the server did the work).
func QueryThroughput(sc Scale, maxClients, queriesPerClient int) (*Experiment, error) {
	if maxClients <= 0 {
		maxClients = runtime.GOMAXPROCS(0)
	}
	if queriesPerClient <= 0 {
		queriesPerClient = 8
	}
	e := &Experiment{
		ID: "throughput", Title: "Multi-client localization query throughput (wire protocol v2)",
		XLabel: "concurrent clients", YLabel: "queries/s",
	}
	runs, err := getVenueRuns(sc)
	if err != nil {
		return nil, err
	}
	run := runs[0]
	queries, err := prepareQueries(run, sc, 4)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.Serve(ln, run.router)
	srv.Log = nil
	defer srv.Close()

	for clients := 1; clients <= maxClients; clients *= 2 {
		qps, err := measureThroughput(srv.Addr().String(), queries, clients, queriesPerClient)
		if err != nil {
			return nil, err
		}
		e.Points = append(e.Points, Point{Series: "v2-multiplexed", X: float64(clients), Y: qps})
	}
	e.Notef("venue %s, %d mappings, GOMAXPROCS=%d, %d queries/client",
		run.world.Name, run.router.Len(""), runtime.GOMAXPROCS(0), queriesPerClient)
	return e, nil
}

// measureThroughput runs one client-count configuration and returns
// queries per second of wall time.
func measureThroughput(addr string, queries []throughputQuery, clients, perClient int) (float64, error) {
	conns := make([]*server.Client, clients)
	for i := range conns {
		c, err := server.Dial(addr)
		if err != nil {
			return 0, err
		}
		conns[i] = c
		defer c.Close()
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	start := time.Now()
	for i, c := range conns {
		wg.Add(1)
		go func(c *server.Client, i int) {
			defer wg.Done()
			for q := 0; q < perClient; q++ {
				qu := queries[(i+q)%len(queries)]
				if _, err := c.Query(ctx, qu.kps, qu.intr); err != nil && !server.IsRemote(err) {
					errc <- err
					return
				}
			}
		}(c, i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errc)
	for err := range errc {
		return 0, err
	}
	return float64(clients*perClient) / elapsed.Seconds(), nil
}
