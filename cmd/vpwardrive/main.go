// Command vpwardrive simulates the Tango wardriving phase of a venue and
// streams the keypoint-to-3D mappings to a running vpserver.
//
//	vpwardrive -server localhost:7310 -venue office -seed 1
//
// With -data the mappings are instead ingested into a local durable
// database directory — no server needed — which a later
// `vpserver -data <dir>` serves directly:
//
//	vpwardrive -data /var/lib/visualprint -venue office -seed 1
package main

import (
	"context"
	"flag"
	"log"

	"visualprint"
)

func main() {
	serverAddr := flag.String("server", "localhost:7310", "vpserver address")
	data := flag.String("data", "", "ingest into this local data directory instead of a server")
	venue := flag.String("venue", "office", "venue world: office, cafeteria, grocery, gallery")
	venueID := flag.String("venue-id", "", "named server venue to ingest into (empty: the default venue)")
	venueShards := flag.Int("venue-shards", 0, "shard count if this upload creates the named venue (0: server default)")
	seed := flag.Uint("seed", 1, "venue construction seed")
	drift := flag.Float64("drift", 0.05, "dead-reckoning drift stddev per sqrt-meter")
	icpFix := flag.Bool("icp", true, "correct drift with ICP before upload")
	batch := flag.Int("batch", 2000, "mappings per ingest message")
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

	cfg := visualprint.DefaultWardriveConfig()
	cfg.Drift.PosStddevPerMeter = *drift
	log.Printf("wardriving %s (%.0fx%.0f m)...", world.Name, world.Max.X, world.Max.Z)
	snaps, err := visualprint.Wardrive(world, cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%d snapshots captured", len(snaps))
	if *icpFix {
		before, after, err := visualprint.CorrectDrift(snaps)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("ICP: map error %.2f m -> %.2f m", before, after)
	}
	ms := visualprint.MappingsFrom(snaps)

	if *data != "" {
		ingestLocal(*data, *venueID, *venueShards, ms, *batch)
		return
	}

	client, err := visualprint.Connect(*serverAddr, visualprint.WithVenue(*venueID))
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < len(ms); i += *batch {
		end := i + *batch
		if end > len(ms) {
			end = len(ms)
		}
		total, err := client.Ingest(context.Background(), ms[i:end])
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("ingested %d/%d (server total %d)", end, len(ms), total)
	}
	log.Printf("done: uploaded %.1f MB", float64(client.BytesSent())/1e6)
}

// ingestLocal writes the mappings into a durable database directory without
// a network hop: open (recovering any prior state), append, snapshot, close.
func ingestLocal(dir, venueID string, venueShards int, ms []visualprint.Mapping, batch int) {
	var opts []visualprint.ServerOption
	if venueID != "" && venueShards > 0 {
		opts = append(opts, visualprint.WithVenueShards(venueID, venueShards))
	}
	srv, err := visualprint.NewServer(visualprint.DefaultServerConfig(), opts...)
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.OpenData(dir); err != nil {
		log.Fatalf("opening data dir %s: %v", dir, err)
	}
	if n := srv.Stats(venueID).Mappings; n > 0 {
		log.Printf("data dir %s: extending existing map of %d mappings", dir, n)
	}
	total := 0
	for i := 0; i < len(ms); i += batch {
		end := i + batch
		if end > len(ms) {
			end = len(ms)
		}
		total, err = srv.Ingest(context.Background(), venueID, ms[i:end])
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("ingested %d/%d (local total %d)", end, len(ms), total)
	}
	// Compact so vpserver's next start loads one snapshot instead of
	// replaying the whole log.
	if err := srv.Compact(); err != nil {
		log.Fatalf("compacting: %v", err)
	}
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("done: %d mappings durable in %s", total, dir)
}
