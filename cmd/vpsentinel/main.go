// Command vpsentinel watches a VisualPrint replication fleet and performs
// automatic failover: it probes every member's replication state each
// interval, and when the primary stays unreachable for -down-after
// consecutive rounds it promotes the most-caught-up replica at a fresh
// epoch and points the rest of the fleet (and any stale ex-primary that
// later reappears) at it.
//
//	vpsentinel -fleet host-a:7310,host-b:7311,host-c:7312
//
// Run one sentinel per fleet. Epochs make a second sentinel safe (servers
// reject stale instructions) but the two will not coordinate their choices.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"visualprint"
	"visualprint/internal/repl"
)

func main() {
	fleet := flag.String("fleet", "", "comma-separated advertised addresses of every fleet member (primary included)")
	interval := flag.Duration("interval", 500*time.Millisecond, "probe period")
	downAfter := flag.Int("down-after", 3, "consecutive rounds without a reachable primary before failover")
	dialTimeout := flag.Duration("dial-timeout", time.Second, "per-probe dial+RPC bound")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	flag.Parse()

	if err := visualprint.SetLogLevel(*logLevel); err != nil {
		log.Fatal(err)
	}
	var addrs []string
	for _, a := range strings.Split(*fleet, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) < 2 {
		log.Fatal("-fleet needs at least two members (a primary and a replica)")
	}
	s, err := repl.StartSentinel(repl.SentinelConfig{
		Fleet:       addrs,
		Interval:    *interval,
		DownAfter:   *downAfter,
		DialTimeout: *dialTimeout,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("vpsentinel watching %d members: %s", len(addrs), strings.Join(addrs, ", "))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	s.Close()
	log.Printf("vpsentinel stopped after %d failovers", s.Failovers())
}
