// Command vpserver runs the VisualPrint cloud service: it accepts
// wardriving ingest, serves uniqueness-oracle downloads, and answers
// localization queries over the binary TCP protocol.
//
// With -data the database is durable: ingests are written to a write-ahead
// log before they are acknowledged, a background snapshotter compacts the
// log, and a restart (graceful or not) recovers the exact map.
//
//	vpserver -listen :7310 -data /var/lib/visualprint
//
// With -advertise the server joins a replication fleet: started bare it is
// the primary; started with -primary it replicates that node's write-ahead
// log and serves reads from byte-identical state. Run cmd/vpsentinel over
// the fleet for automatic failover.
//
//	vpserver -listen :7310 -data /srv/a -advertise host-a:7310
//	vpserver -listen :7311 -data /srv/b -advertise host-b:7311 -primary host-a:7310
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"visualprint"
)

// venueShardsFlag parses repeated -venue-shards name=N values into venue
// topology options.
type venueShardsFlag struct {
	opts []visualprint.ServerOption
}

func (f *venueShardsFlag) String() string { return "" }

func (f *venueShardsFlag) Set(v string) error {
	name, count, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want name=shards, got %q", v)
	}
	n, err := strconv.Atoi(count)
	if err != nil || n < 1 {
		return fmt.Errorf("bad shard count %q", count)
	}
	f.opts = append(f.opts, visualprint.WithVenueShards(name, n))
	return nil
}

func main() {
	listen := flag.String("listen", ":7310", "listen address")
	data := flag.String("data", "", "data directory for durable storage (empty: in-memory)")
	debugAddr := flag.String("debug-addr", "", "HTTP debug listen address serving /debug/metrics and /debug/pprof/ (empty: disabled)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	maxInFlight := flag.Int("max-in-flight", 0, "max concurrently executing requests (0: default, 2*GOMAXPROCS+2)")
	queueDepth := flag.Int("queue-depth", -1, "max requests queued for a slot before shedding with overloaded (-1: default)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests before canceling them")
	var venueShards venueShardsFlag
	flag.Var(&venueShards, "venue-shards", "shard topology for a named venue as name=N (repeatable; applies at venue creation and must match a venue already recorded under -data)")
	advertise := flag.String("advertise", "", "address fleet peers and redirected clients reach this node at; enables replication (requires -data)")
	primary := flag.String("primary", "", "start as a replica of this primary address (with -advertise; empty: start as the primary)")
	minSync := flag.Int("min-sync-replicas", 0, "acknowledge ingests only after this many replicas confirm them durable (0: local durability only)")
	syncTimeout := flag.Duration("sync-timeout", 0, "bound on the semi-sync replica wait (0: default 5s)")
	maxStaleness := flag.Duration("max-staleness", 0, "how stale a replica may serve reads before redirecting to the primary (0: default 3s)")
	flag.Parse()

	if err := visualprint.SetLogLevel(*logLevel); err != nil {
		log.Fatal(err)
	}
	opts := venueShards.opts
	if *maxInFlight > 0 {
		opts = append(opts, visualprint.WithMaxInFlight(*maxInFlight))
	}
	if *queueDepth >= 0 {
		opts = append(opts, visualprint.WithQueueDepth(*queueDepth))
	}
	opts = append(opts, visualprint.WithDrainTimeout(*drainTimeout))
	if *primary != "" && *advertise == "" {
		log.Fatal("-primary requires -advertise")
	}
	if *advertise != "" {
		if *data == "" {
			log.Fatal("replication (-advertise) requires -data")
		}
		opts = append(opts, visualprint.WithReplication(visualprint.ReplicationOptions{
			Advertise:       *advertise,
			Primary:         *primary,
			MinSyncReplicas: *minSync,
			SyncTimeout:     *syncTimeout,
			MaxStaleness:    *maxStaleness,
		}))
	}
	srv, err := visualprint.NewServer(visualprint.DefaultServerConfig(), opts...)
	if err != nil {
		log.Fatal(err)
	}
	if *data != "" {
		if err := srv.OpenData(*data); err != nil {
			log.Fatalf("opening data dir %s: %v", *data, err)
		}
		log.Printf("data dir %s: recovered %d mappings (default venue)", *data, srv.Stats("").Mappings)
		for _, v := range srv.Venues() {
			log.Printf("  venue %s: %d mappings", v, srv.Stats(v).Mappings)
		}
	}
	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("visualprint server listening on %s", addr)
	if *advertise != "" {
		st := srv.ReplStatus()
		log.Printf("replication: role=%s epoch=%d advertise=%s primary=%s", st.Role, st.Epoch, *advertise, st.Primary)
	}
	if *debugAddr != "" {
		dAddr, err := srv.ServeDebug(*debugAddr)
		if err != nil {
			log.Fatalf("debug listener: %v", err)
		}
		log.Printf("debug endpoints on http://%s/debug/metrics", dAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("draining (%d mappings served); second signal forces exit", srv.Stats("").Mappings)
	// A second signal skips the drain: cut everything off immediately.
	go func() {
		<-sig
		log.Print("forced shutdown")
		srv.Close() //nolint:errcheck // exiting either way
		os.Exit(1)
	}()
	if *data != "" {
		// Fold every venue's WAL into a snapshot so the next start
		// recovers fast.
		if err := srv.Compact(); err != nil {
			log.Printf("final compaction: %v", err)
		}
	}
	// Graceful drain: stop accepting, refuse new requests with the typed
	// shutting-down error, let in-flight work finish (bounded by
	// -drain-timeout), flush the WAL, then exit.
	if err := srv.Shutdown(context.Background()); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	log.Print("drained cleanly")
}
