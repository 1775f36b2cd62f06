// Command vpclient plays the smartphone role against a running vpserver:
// it downloads the uniqueness oracle, captures query frames in a venue,
// filters keypoints to the most-unique fingerprint, and requests
// localization — reporting accuracy and bandwidth.
//
//	vpclient -server localhost:7310 -venue office -seed 1 -queries 5
//
// The venue and seed must match what vpwardrive ingested.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"
	"strconv"
	"strings"
	"time"

	"visualprint"
)

func main() {
	serverAddr := flag.String("server", "localhost:7310", "vpserver address")
	venue := flag.String("venue", "office", "venue world: office, cafeteria, grocery, gallery")
	venueID := flag.String("venue-id", "", "named server venue to query (empty: the default venue; must match vpwardrive -venue-id)")
	seed := flag.Uint("seed", 1, "venue construction seed (must match vpwardrive)")
	queries := flag.Int("queries", 5, "number of query viewpoints")
	selectN := flag.Int("select", 200, "most-unique keypoints to upload per query")
	stats := flag.Bool("stats", false, "print server state (size, persistence) and exit")
	metrics := flag.Bool("metrics", false, "print server observability report (counters, latency quantiles, slow log) and exit")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request deadline (propagated to the server)")
	dialTimeout := flag.Duration("dial-timeout", 5*time.Second, "TCP connect timeout")
	flag.Parse()

	var world *visualprint.World
	switch *venue {
	case "office":
		world = visualprint.NewOfficeWorld(uint32(*seed))
	case "cafeteria":
		world = visualprint.NewCafeteriaWorld(uint32(*seed))
	case "grocery":
		world = visualprint.NewGroceryWorld(uint32(*seed))
	case "gallery":
		world = visualprint.NewGalleryWorld(uint32(*seed))
	default:
		log.Fatalf("unknown venue %q", *venue)
	}

	// Retries cover transient overload and lost connections; the per-call
	// contexts below bound each request end to end, server included.
	client, err := visualprint.Connect(*serverAddr,
		visualprint.WithDialTimeout(*dialTimeout),
		visualprint.WithRetryPolicy(visualprint.DefaultRetryPolicy()),
		visualprint.WithVenue(*venueID))
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	reqCtx := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), *timeout)
	}

	if *stats {
		printStats(client, reqCtx)
		return
	}
	if *metrics {
		printMetrics(client, reqCtx)
		return
	}

	ctx, cancel := reqCtx()
	osync := client.OracleSync()
	oracle, err := osync.Sync(ctx)
	cancel()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("oracle downloaded: %.1f MB compressed, %.1f MB in RAM",
		float64(osync.TransferBytes())/1e6, float64(oracle.MemoryBytes())/1e6)

	sc := visualprint.DefaultSiftConfig()
	pois := world.POIsOfKind(visualprint.POIUnique)
	success := 0
	for q := 0; q < *queries && q < len(pois); q++ {
		cam := visualprint.CameraFacing(world, pois[(q*5)%len(pois)], 3.0, 0.25, -0.05, 240, 180)
		fr, err := visualprint.Render(world, cam)
		if err != nil {
			log.Fatal(err)
		}
		kps := visualprint.ExtractKeypoints(fr.Image, sc)
		sel, err := oracle.SelectUnique(kps, *selectN)
		if err != nil {
			log.Fatal(err)
		}
		qctx, qcancel := reqCtx()
		res, err := client.Query(qctx, sel, visualprint.IntrinsicsOf(cam))
		qcancel()
		if err != nil {
			log.Printf("query %d: %v", q, err)
			continue
		}
		success++
		log.Printf("query %d: %d/%d keypoints uploaded, error %.2f m, %d matches",
			q, len(sel), len(kps), res.Position.Dist(cam.Pos), res.Matched)
	}
	log.Printf("%d/%d queries localized; %.1f KB uploaded total",
		success, *queries, float64(client.BytesSent())/1024)
}

// printMetrics fetches and prints the server's observability report:
// counters and gauges sorted by name, latency histograms as quantiles,
// and the slow-request log with per-stage breakdowns.
func printMetrics(client *visualprint.Client, reqCtx func() (context.Context, context.CancelFunc)) {
	ctx, cancel := reqCtx()
	defer cancel()
	rep, err := client.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uptime: %s\n", (time.Duration(rep.UptimeSeconds * float64(time.Second))).Round(time.Second))

	// Replication gets its own section: the node's role and offsets from the
	// repl state RPC, plus every repl_* / failover instrument pulled out of
	// the generic listings. Servers without replication answer the state RPC
	// with an error; the section is simply omitted then.
	isRepl := func(name string) bool {
		return strings.HasPrefix(name, "repl_") || name == "failovers_total"
	}
	replCounters, replGauges := map[string]uint64{}, map[string]int64{}
	for name, v := range rep.Counters {
		if isRepl(name) {
			replCounters[name] = v
			delete(rep.Counters, name)
		}
	}
	for name, v := range rep.Gauges {
		if isRepl(name) {
			replGauges[name] = v
			delete(rep.Gauges, name)
		}
	}
	sctx, scancel := reqCtx()
	rst, rerr := client.ReplStatus(sctx)
	scancel()
	if rerr == nil || len(replCounters)+len(replGauges) > 0 {
		fmt.Println("\nreplication:")
		if rerr == nil {
			fmt.Printf("  %-28s %s\n", "role", rst.Role)
			fmt.Printf("  %-28s %d\n", "epoch", rst.Epoch)
			fmt.Printf("  %-28s %d\n", "applied_records", rst.Applied)
			fmt.Printf("  %-28s %s\n", "staleness", rst.Staleness.Round(time.Millisecond))
			fmt.Printf("  %-28s %s\n", "primary", rst.Primary)
		}
		for _, name := range sortedKeys(replCounters) {
			fmt.Printf("  %-28s %d\n", name, replCounters[name])
		}
		for _, name := range sortedKeys(replGauges) {
			if strings.HasSuffix(name, "_ns") {
				fmt.Printf("  %-28s %s\n", name, ns(replGauges[name]))
				continue
			}
			fmt.Printf("  %-28s %d\n", name, replGauges[name])
		}
	}

	// Continuous-localization sessions likewise: every track_* instrument
	// in one section, with the warm-hit ratio derived up front. Omitted
	// entirely on servers without the tracking subsystem.
	trackCounters, trackGauges := map[string]uint64{}, map[string]int64{}
	for name, v := range rep.Counters {
		if strings.HasPrefix(name, "track_") {
			trackCounters[name] = v
			delete(rep.Counters, name)
		}
	}
	for name, v := range rep.Gauges {
		if strings.HasPrefix(name, "track_") {
			trackGauges[name] = v
			delete(rep.Gauges, name)
		}
	}
	if len(trackCounters)+len(trackGauges) > 0 {
		fmt.Println("\ntracking (continuous localization):")
		if warm, cold := trackCounters["track_warm"], trackCounters["track_cold"]; warm+cold > 0 {
			fmt.Printf("  %-28s %.1f%% (%d warm / %d session queries)\n",
				"warm_hit_ratio", 100*float64(warm)/float64(warm+cold), warm, warm+cold)
		}
		for _, name := range sortedKeys(trackCounters) {
			fmt.Printf("  %-28s %d\n", name, trackCounters[name])
		}
		for _, name := range sortedKeys(trackGauges) {
			fmt.Printf("  %-28s %d\n", name, trackGauges[name])
		}
	}

	fmt.Println("\ncounters:")
	for _, name := range sortedKeys(rep.Counters) {
		fmt.Printf("  %-28s %d\n", name, rep.Counters[name])
	}
	fmt.Println("\ngauges:")
	for _, name := range sortedKeys(rep.Gauges) {
		fmt.Printf("  %-28s %d\n", name, rep.Gauges[name])
	}
	fmt.Println("\nlatency (p50 / p90 / p99 / max):")
	for _, name := range sortedKeys(rep.Histograms) {
		h := rep.Histograms[name]
		if h.Count == 0 {
			continue
		}
		// Histograms are nanosecond-valued by convention except the few
		// counting ones (e.g. wal_batch_records), which print raw.
		render := ns
		if !strings.HasSuffix(name, "_ns") {
			render = func(v int64) string { return strconv.FormatInt(v, 10) }
		}
		fmt.Printf("  %-28s %9s %9s %9s %9s  (n=%d)\n", name,
			render(h.P50), render(h.P90), render(h.P99), render(h.Max), h.Count)
	}
	if len(rep.Slow) > 0 {
		fmt.Println("\nslow requests (newest first):")
		for _, s := range rep.Slow {
			fmt.Printf("  %s %s total %s", time.Unix(0, s.UnixNano).Format(time.RFC3339), s.Op, ns(s.TotalNs))
			for _, stage := range sortedKeys(s.StageNs) {
				fmt.Printf("  %s=%s", stage, ns(s.StageNs[stage]))
			}
			fmt.Println()
		}
	}
}

// sortedKeys returns m's keys in lexical order, so the report is stable
// run to run.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ns renders a nanosecond quantity at a human scale.
func ns(v int64) string {
	return time.Duration(v).Round(time.Microsecond).String()
}

// printStats fetches and prints the server's full state report.
func printStats(client *visualprint.Client, reqCtx func() (context.Context, context.CancelFunc)) {
	ctx, cancel := reqCtx()
	defer cancel()
	s, err := client.StatsFull(ctx)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("mappings:               %d", s.Mappings)
	log.Printf("database size:          %.1f MB", float64(s.DatabaseBytes)/1e6)
	log.Printf("oracle inserts:         %d", s.OracleInserts)
	if !s.Persistent {
		log.Printf("persistence:            in-memory")
		return
	}
	log.Printf("persistence:            durable")
	log.Printf("snapshot covers:        %d records", s.SnapshotSeq)
	log.Printf("wal size:               %.1f MB", float64(s.WALBytes)/1e6)
	if s.LastCompactionUnix > 0 {
		log.Printf("last compaction:        %s", time.Unix(s.LastCompactionUnix, 0).Format(time.RFC3339))
	} else {
		log.Printf("last compaction:        never")
	}
}
