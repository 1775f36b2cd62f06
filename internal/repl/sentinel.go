package repl

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"visualprint/internal/obs"
	"visualprint/internal/server"
)

// Sentinel watches a replication fleet and repairs it: when the primary
// stays unreachable for DownAfter consecutive probe rounds it promotes the
// most-caught-up reachable replica at a fresh epoch and points the rest of
// the fleet at it; when a stale ex-primary reappears it is demoted into the
// current epoch. One sentinel per fleet is assumed — epochs make concurrent
// sentinels safe (servers reject stale epochs) but not coordinated.
//
// Promotion picks the reachable replica with the highest applied offset.
// Because replication streams a single linear log, the highest offset is a
// superset of every lower one, and a semi-sync primary only acknowledged an
// ingest once it was durable on MinSyncReplicas replicas — so as long as
// fewer than MinSyncReplicas replicas are lost together with the primary,
// every client-acknowledged ingest is inside the winner's prefix.
type SentinelConfig struct {
	// Fleet is every member's advertised address, primary included.
	Fleet []string
	// Interval is the probe period. Default 500ms.
	Interval time.Duration
	// DownAfter is how many consecutive rounds without a reachable primary
	// trigger failover. Default 3.
	DownAfter int
	// DialTimeout bounds each probe's dial+RPC. Default 1s.
	DialTimeout time.Duration
}

// Sentinel is the fleet watcher. Start with StartSentinel, stop with Close.
type Sentinel struct {
	cfg    SentinelConfig
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	misses    int
	failovers int
	lastSeen  string // last known-good primary address, for logs
}

// StartSentinel launches the watch loop over the configured fleet.
func StartSentinel(cfg SentinelConfig) (*Sentinel, error) {
	if len(cfg.Fleet) == 0 {
		return nil, errors.New("repl: SentinelConfig requires a fleet")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 3
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Sentinel{cfg: cfg, ctx: ctx, cancel: cancel, done: make(chan struct{})}
	go s.run()
	return s, nil
}

// Close stops the watch loop and waits for it to exit.
func (s *Sentinel) Close() {
	s.cancel()
	<-s.done
}

// Failovers reports how many promotions this sentinel has performed.
func (s *Sentinel) Failovers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failovers
}

func (s *Sentinel) run() {
	defer close(s.done)
	t := time.NewTicker(s.cfg.Interval)
	defer t.Stop()
	for {
		s.round()
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
		}
	}
}

// probe is one fleet member's answer (or lack of one) in a round.
type probe struct {
	addr string
	st   server.ReplStatus
	ok   bool
}

// round probes every member once and acts on the aggregate picture.
func (s *Sentinel) round() {
	probes := s.probeAll()
	var maxEpoch uint64
	var primaries, replicas []probe
	for _, p := range probes {
		if !p.ok {
			continue
		}
		if p.st.Epoch > maxEpoch {
			maxEpoch = p.st.Epoch
		}
		switch p.st.Role {
		case server.RolePrimary:
			primaries = append(primaries, p)
		case server.RoleReplica:
			replicas = append(replicas, p)
		}
	}

	if len(primaries) > 0 {
		// The authoritative primary is the one at the highest epoch; any
		// other self-styled primary is a stale survivor of an old epoch.
		sort.Slice(primaries, func(i, j int) bool {
			if primaries[i].st.Epoch != primaries[j].st.Epoch {
				return primaries[i].st.Epoch > primaries[j].st.Epoch
			}
			return primaries[i].addr < primaries[j].addr
		})
		lead := primaries[0]
		s.mu.Lock()
		s.misses = 0
		s.lastSeen = lead.addr
		s.mu.Unlock()
		for _, p := range primaries[1:] {
			obs.Warnf("repl: sentinel: demoting stale primary %s (epoch %d) under %s (epoch %d)",
				p.addr, p.st.Epoch, lead.addr, lead.st.Epoch)
			s.follow(p.addr, lead.st.Epoch, lead.addr)
		}
		// Heal replicas pointed at the wrong primary (e.g. restarted with a
		// stale -primary flag, or still following the demoted node).
		for _, p := range replicas {
			if p.st.Primary != lead.addr && p.st.Epoch <= lead.st.Epoch {
				s.follow(p.addr, lead.st.Epoch, lead.addr)
			}
		}
		return
	}

	// No reachable primary this round.
	s.mu.Lock()
	s.misses++
	misses, last := s.misses, s.lastSeen
	s.mu.Unlock()
	if misses < s.cfg.DownAfter || len(replicas) == 0 {
		if len(replicas) == 0 && misses >= s.cfg.DownAfter {
			obs.Warnf("repl: sentinel: primary %s down %d rounds but no reachable replica to promote", last, misses)
		}
		return
	}

	// Failover: promote the most-caught-up replica at a fresh epoch.
	// (Candidates — replicas mid-full-sync — are excluded: their applied
	// offset describes a half-replaced database.)
	sort.Slice(replicas, func(i, j int) bool {
		if replicas[i].st.Applied != replicas[j].st.Applied {
			return replicas[i].st.Applied > replicas[j].st.Applied
		}
		return replicas[i].addr < replicas[j].addr
	})
	winner := replicas[0]
	newEpoch := maxEpoch + 1
	obs.Warnf("repl: sentinel: primary %s unreachable for %d rounds; promoting %s (applied %d) at epoch %d",
		last, misses, winner.addr, winner.st.Applied, newEpoch)
	if err := s.promote(winner.addr, newEpoch); err != nil {
		obs.Errorf("repl: sentinel: promoting %s: %v", winner.addr, err)
		return // keep counting misses; retry next round
	}
	s.mu.Lock()
	s.misses = 0
	s.failovers++
	s.lastSeen = winner.addr
	s.mu.Unlock()
	for _, p := range replicas[1:] {
		s.follow(p.addr, newEpoch, winner.addr)
	}
}

// probeAll asks every fleet member for its replication state, in parallel.
func (s *Sentinel) probeAll() []probe {
	out := make([]probe, len(s.cfg.Fleet))
	var wg sync.WaitGroup
	for i, addr := range s.cfg.Fleet {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			out[i] = probe{addr: addr}
			st, err := withClient(s, addr, func(ctx context.Context, c *server.Client) (server.ReplStatus, error) {
				return c.ReplStatus(ctx)
			})
			if err != nil {
				return
			}
			out[i].st, out[i].ok = st, true
		}(i, addr)
	}
	wg.Wait()
	return out
}

// promote tells addr to become the primary at epoch.
func (s *Sentinel) promote(addr string, epoch uint64) error {
	_, err := withClient(s, addr, func(ctx context.Context, c *server.Client) (struct{}, error) {
		return struct{}{}, c.ReplPromote(ctx, epoch)
	})
	return err
}

// follow tells addr that primary leads the fleet as of epoch. Failures are
// logged, not fatal: an unreachable member learns the new primary from its
// own redirect handling or a later sentinel round.
func (s *Sentinel) follow(addr string, epoch uint64, primary string) {
	_, err := withClient(s, addr, func(ctx context.Context, c *server.Client) (struct{}, error) {
		return struct{}{}, c.ReplFollow(ctx, epoch, primary)
	})
	if err != nil {
		obs.Warnf("repl: sentinel: pointing %s at %s: %v", addr, primary, err)
	}
}

// withClient dials addr, runs fn under the probe timeout, and closes the
// connection. Every sentinel RPC is a fresh short-lived connection so a
// wedged member can't wedge the watch loop.
func withClient[T any](s *Sentinel, addr string, fn func(context.Context, *server.Client) (T, error)) (T, error) {
	var zero T
	ctx, cancel := context.WithTimeout(s.ctx, s.cfg.DialTimeout)
	defer cancel()
	c, err := server.DialContext(ctx, addr, server.WithDialTimeout(s.cfg.DialTimeout))
	if err != nil {
		return zero, err
	}
	defer c.Close()
	return fn(ctx, c)
}
