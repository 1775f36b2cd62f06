package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"visualprint/internal/bloom"
	"visualprint/internal/core"
	"visualprint/internal/hash"
	"visualprint/internal/mathx"
	"visualprint/internal/obs"
	"visualprint/internal/track"
)

// Router is the engine: every operation resolves a venue by name and runs on
// that venue's shard engines. The default venue (the empty name) is an
// ordinary one-shard venue that always exists; each named venue owns an
// isolated set of shards — its own LSH indexes, oracles, and WAL/snapshot
// directories — created by its first ingest. Only Ingest creates a venue:
// reads of a venue that was never ingested answer empty (Locate returns
// ErrEmptyDatabase, which is the cross-venue isolation guarantee the tests
// pin; an oracle sync answers the configuration's empty oracle at version
// (0, 0); a subscription parks until the first ingest).
//
// Locate has one route and one body: venue → pinned shard views → gather →
// solve (locateShards). Every keypoint asks every view for its top n and the
// gather restores the venue-wide total order (DistSq, probe ordinal, ingest
// sequence) before truncating, so the candidate list is bit-identical to what
// one shard holding the same mappings in the same ingest order would have
// produced — see mergeCand for the ordering argument and
// TestRouterLocateBitIdentical for the pinned proof; a one-shard venue is the
// case where the order is already there. The one semantic difference is
// freshness, not ranking: a Locate racing an Ingest may observe a prefix of
// the batch (per-shard reads are not a venue-wide atomic snapshot); quiesced,
// the results are exact.
type Router struct {
	cfg DatabaseConfig

	mu sync.RWMutex
	// venues holds every live venue, the default one under the empty name.
	venues map[string]*venue
	dir    string // data directory; "" while in-memory
	// pre maps venue names to configurations fixed before first ingest
	// (shard count, cell size); venues absent from the map get defaults.
	pre map[string]VenueConfig
	// created is closed and replaced whenever a venue is created — the wakeup
	// for oracle subscriptions parked on a venue that does not exist yet.
	created chan struct{}

	// Observability (nil until EnableObs): met is the engine instrument set
	// the default venue's shard records into, shardMet its gauge-less copy
	// for every other shard; per-venue request counters are created on
	// met's registry as venues appear.
	met       atomic.Pointer[dbMetrics]
	shardMet  *dbMetrics
	venueGage *obs.Gauge

	// trk is the continuous-localization session state (table + metrics;
	// see track.go). Always non-nil after NewRouter; swapped wholesale by
	// ConfigureTracking, read lock-free on the LocateSession hot path.
	trk atomic.Pointer[trackState]

	log *obs.Logger
}

// VenueConfig fixes a venue's shard topology. It is immutable once the venue
// exists — resharding is a future roadmap item — and persisted in the
// venue's meta.json so recovery rebuilds the same topology.
type VenueConfig struct {
	// Shards is the number of shard engines the venue's mappings are
	// partitioned across (minimum 1).
	Shards int `json:"shards"`
	// CellSize is the edge length of the spatial cells mappings are hashed
	// by before the cell is assigned to a shard. Defaults to
	// DefaultVenueCellSize. Cells, not raw positions, are the partition key
	// so co-located features land on the same shard and per-shard WAL
	// batches stay coherent; correctness never depends on it (the merge
	// order is position-agnostic).
	CellSize float64 `json:"cell_size"`
}

// DefaultVenueCellSize is the default spatial cell edge (meters in the
// simulated venues) — a few times the clustering epsilon, so one consensus
// cluster usually lives in O(1) cells.
const DefaultVenueCellSize = 4.0

func (vc VenueConfig) withDefaults() VenueConfig {
	if vc.Shards <= 0 {
		vc.Shards = 1
	}
	if vc.CellSize <= 0 {
		vc.CellSize = DefaultVenueCellSize
	}
	return vc
}

// venue is one tenant: its shard engines plus the lock under which
// venue-wide ingest order is stamped onto every mapping.
type venue struct {
	name   string
	cfg    VenueConfig
	shards []*Database

	// ingestMu serializes the stamping and applying of batches venue-wide,
	// so every shard observes a strictly increasing subsequence of the venue
	// sequence (IngestSeq's contract). It is not held across the durability
	// wait.
	ingestMu sync.Mutex

	// Per-venue request counters (nil until EnableObs, which may run while
	// the venue serves).
	locates atomic.Pointer[obs.Counter]
	ingests atomic.Pointer[obs.Counter]
}

// NewRouter builds the engine with its empty default venue. Named venues are
// created lazily with the same configuration.
func NewRouter(cfg DatabaseConfig) (*Router, error) {
	r := &Router{
		cfg:     cfg,
		venues:  make(map[string]*venue),
		pre:     make(map[string]VenueConfig),
		created: make(chan struct{}),
	}
	r.trk.Store(&trackState{tb: track.New(track.DefaultConfig())})
	def, err := r.buildVenueLocked("", VenueConfig{}.withDefaults())
	if err != nil {
		return nil, err
	}
	r.venues[""] = def
	return r, nil
}

// SetLogger routes venue lifecycle messages through l (nil silences).
func (r *Router) SetLogger(l *obs.Logger) {
	if l == nil {
		l = obs.Discard
	}
	r.mu.Lock()
	r.log = l
	r.mu.Unlock()
}

// ConfigureVenue fixes the shard topology a venue will be created with. It
// must run before the venue's first ingest (or before OpenVenues recovers
// it); configuring an already-created venue returns an error, since live
// resharding is not supported.
func (r *Router) ConfigureVenue(name string, cfg VenueConfig) error {
	if !validVenueName(name) {
		return fmt.Errorf("server: invalid venue name %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.venues[name]; ok {
		return fmt.Errorf("server: venue %q already exists; resharding is not supported", name)
	}
	r.pre[name] = cfg.withDefaults()
	return nil
}

// Default returns the default venue's single shard — what the replication
// control block and the fleet runner bind to.
func (r *Router) Default() *Database { return r.lookup("").shards[0] }

// Venues returns the sorted names of all live named venues.
func (r *Router) Venues() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.venues))
	for n := range r.venues {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names[1:] // the default venue always exists and its empty name sorts first
}

// EnableObs turns on metrics and tracing for the whole engine and returns
// the registry. Idempotent. One instrument set serves every shard of every
// venue, present and future, so all venues record into the same locates /
// locate_ns / ingest_ns / stage_* instruments; the per-engine gauges
// (mappings, recovery_ns, wal_bytes, snapshot_bytes) report the default venue.
// Venues additionally get a request-counter pair (venue_<name>_locates /
// _ingests), and the venues gauge tracks the live named-venue count. Serve
// calls it for every networked server; library users opt in explicitly.
func (r *Router) EnableObs() *obs.Registry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.met.Load(); m != nil {
		return m.reg
	}
	reg := obs.NewRegistry()
	m := newDBMetrics(reg)
	r.met.Store(m)
	r.shardMet = m.withoutGauges()
	for _, v := range r.venues {
		r.instrumentLocked(v)
	}
	r.venues[""].shards[0].setMetrics(m)
	r.venueGage = reg.Gauge("venues")
	r.venueGage.Set(int64(len(r.venues) - 1))
	// Re-publish the tracking state with instruments attached (the table's
	// session gauge starts at the current — normally zero — count).
	st := r.trk.Load()
	st.tb.Instrument(reg)
	r.trk.Store(&trackState{tb: st.tb, tm: newTrackMetrics(reg)})
	return reg
}

// instrumentLocked attaches the shared instrument set and the per-venue
// counters to v. No-op before EnableObs. Callers hold r.mu.
func (r *Router) instrumentLocked(v *venue) {
	if r.shardMet == nil {
		return
	}
	for _, sh := range v.shards {
		sh.setMetrics(r.shardMet)
	}
	v.locates.Store(r.shardMet.reg.Counter("venue_" + v.name + "_locates"))
	v.ingests.Store(r.shardMet.reg.Counter("venue_" + v.name + "_ingests"))
}

// metrics returns the engine instrument set (the no-op set before
// EnableObs). Lock-free, like Database.metrics.
func (r *Router) metrics() *dbMetrics {
	if m := r.met.Load(); m != nil {
		return m
	}
	return noDBMetrics
}

// venueMetaFile is the per-venue topology record inside the venue directory.
const venueMetaFile = "meta.json"

// venuesSubdir is the directory under the data dir holding one subdirectory
// per named venue.
const venuesSubdir = "venues"

// shardDirName names shard i's store directory inside a venue directory.
func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// shardDir maps a venue's shard to its store directory — the one place the
// default venue's name matters to the engine: its single shard lives at the
// data-dir root (where replicated and pre-venue deployments have always kept
// it), named venues under venues/<name>/shard-NNN.
func (r *Router) shardDir(venueName string, i int) string {
	if venueName == "" {
		return r.dir
	}
	return filepath.Join(r.dir, venuesSubdir, venueName, shardDirName(i))
}

// OpenVenues attaches dir as the data directory: the default venue's shard is
// recovered from the root, every venue recorded under dir/venues from its own
// directory (topology from meta.json, each shard from its store), and venues
// created later are durable under the same root. It must run before any
// ingest. A failed open leaves the router closed and in-memory.
func (r *Router) OpenVenues(dir string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dir != "" {
		return errors.New("server: router already has a data directory")
	}
	if len(r.venues) != 1 {
		return errors.New("server: OpenVenues requires no live named venues")
	}
	r.dir = dir
	if err := r.openLocked(); err != nil {
		r.closeLocked()
		return err
	}
	r.venueGage.Set(int64(len(r.venues) - 1))
	return nil
}

func (r *Router) openLocked() error {
	if err := r.venues[""].shards[0].Open(r.shardDir("", 0)); err != nil {
		return err
	}
	root := filepath.Join(r.dir, venuesSubdir)
	entries, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, e := range entries {
		if !e.IsDir() || !validVenueName(e.Name()) {
			continue
		}
		name := e.Name()
		meta, err := os.ReadFile(filepath.Join(root, name, venueMetaFile))
		if err != nil {
			return fmt.Errorf("server: venue %q: %w", name, err)
		}
		var vc VenueConfig
		if err := json.Unmarshal(meta, &vc); err != nil {
			return fmt.Errorf("server: venue %q meta: %w", name, err)
		}
		v, err := r.buildVenueLocked(name, vc.withDefaults())
		if err != nil {
			return err
		}
		r.venues[name] = v
	}
	return nil
}

// buildVenueLocked constructs a venue's shard engines, attaching durable
// stores when the router has a data directory. Callers hold r.mu (or own the
// router exclusively).
func (r *Router) buildVenueLocked(name string, vc VenueConfig) (*venue, error) {
	v := &venue{name: name, cfg: vc}
	for i := 0; i < vc.Shards; i++ {
		sh, err := NewDatabase(r.cfg)
		if err == nil && r.dir != "" {
			err = sh.Open(r.shardDir(name, i))
		}
		if err != nil {
			for _, prev := range v.shards {
				prev.Close()
			}
			return nil, fmt.Errorf("server: venue %q shard %d: %w", name, i, err)
		}
		v.shards = append(v.shards, sh)
	}
	r.instrumentLocked(v)
	return v, nil
}

// lookup returns a live venue, or nil when it was never created.
func (r *Router) lookup(name string) *venue {
	r.mu.RLock()
	v := r.venues[name]
	r.mu.RUnlock()
	return v
}

// getOrCreate returns the named venue, creating it (with its preconfigured
// or default topology, durable when a data directory is attached) on first
// use. Only Ingest calls it.
func (r *Router) getOrCreate(name string) (*venue, error) {
	if v := r.lookup(name); v != nil {
		return v, nil
	}
	if !validVenueName(name) {
		return nil, fmt.Errorf("server: invalid venue name %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.venues[name]; ok {
		return v, nil
	}
	vc, ok := r.pre[name]
	if !ok {
		vc = VenueConfig{}.withDefaults()
	}
	if r.dir != "" {
		venueDir := filepath.Join(r.dir, venuesSubdir, name)
		if err := os.MkdirAll(venueDir, 0o755); err != nil {
			return nil, err
		}
		meta, err := json.Marshal(vc)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(venueDir, venueMetaFile), meta, 0o644); err != nil {
			return nil, err
		}
	}
	v, err := r.buildVenueLocked(name, vc)
	if err != nil {
		return nil, err
	}
	r.venues[name] = v
	close(r.created)
	r.created = make(chan struct{})
	r.venueGage.Set(int64(len(r.venues) - 1))
	if r.log != nil {
		r.log.Infof("server: venue %q created (%d shard(s))", name, vc.Shards)
	}
	return v, nil
}

// Close releases every venue's durable resources: pending WAL commits are
// flushed, background snapshotters stop, file handles close. The venues stay
// usable in memory. Idempotent.
func (r *Router) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closeLocked()
}

func (r *Router) closeLocked() error {
	r.dir = ""
	var first error
	for _, v := range r.venues {
		for _, sh := range v.shards {
			if err := sh.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Compact folds every venue's shards into fresh durable snapshots. A no-op
// on an in-memory router.
func (r *Router) Compact() error {
	r.mu.RLock()
	var shards []*Database
	for _, v := range r.venues {
		shards = append(shards, v.shards...)
	}
	r.mu.RUnlock()
	for _, sh := range shards {
		if err := sh.Compact(); err != nil {
			return err
		}
	}
	return nil
}

// shardFor hashes a mapping's spatial cell to a shard index.
func (v *venue) shardFor(p mathx.Vec3) int {
	if len(v.shards) == 1 {
		return 0
	}
	cs := v.cfg.CellSize
	var buf [12]byte
	binary.LittleEndian.PutUint32(buf[0:], uint32(int32(math.Floor(p.X/cs))))
	binary.LittleEndian.PutUint32(buf[4:], uint32(int32(math.Floor(p.Y/cs))))
	binary.LittleEndian.PutUint32(buf[8:], uint32(int32(math.Floor(p.Z/cs))))
	return int(hash.Sum64(buf[:], 0x5eed) % uint64(len(v.shards)))
}

// Len returns a venue's total mapping count (0 for a venue never created).
func (r *Router) Len(venueName string) int {
	v := r.lookup(venueName)
	if v == nil {
		return 0
	}
	return v.len()
}

func (v *venue) len() int {
	n := 0
	for _, sh := range v.shards {
		n += sh.Len()
	}
	return n
}

// Ingest routes a batch to a venue, creating it on first use, and returns
// the venue's total mapping count after the batch. Every mapping is stamped
// with the next venue-global sequence number and routed to the shard owning
// its spatial cell. The stamping and the per-shard reserve-and-apply happen
// under the venue's ingest lock, so each shard sees sequence numbers in
// order; the lock is released before the durability wait (each shard's WAL
// fsync, the semi-sync replica quorum), so concurrent ingests into one venue
// share group commits instead of serializing on the disk or the replica
// round trip. The call returns once every shard has acknowledged.
//
// The context gates admission only (see Database.Ingest).
func (r *Router) Ingest(ctx context.Context, venueName string, ms []Mapping) (total int, err error) {
	if err := ctx.Err(); err != nil {
		return 0, ctxError(err)
	}
	v, err := r.getOrCreate(venueName)
	if err != nil {
		return 0, err
	}
	v.ingests.Load().Inc()
	start := time.Now()
	err = v.ingest(ms)
	r.metrics().endIngest(start, err)
	if err != nil {
		return 0, err
	}
	return v.len(), nil
}

func (v *venue) ingest(ms []Mapping) error {
	v.ingestMu.Lock()
	// Stamp from the shards' own high-water marks rather than a cached
	// counter: the default venue's shard is also written by replication
	// (ApplyReplRecords) while this node is a replica.
	var next uint64
	for _, sh := range v.shards {
		next = max(next, sh.MaxSeq())
	}
	perMs := make([][]Mapping, len(v.shards))
	perSeq := make([][]uint64, len(v.shards))
	for i := range ms {
		si := v.shardFor(ms[i].Pos)
		next++
		perMs[si] = append(perMs[si], ms[i])
		perSeq[si] = append(perSeq[si], next)
	}
	// One goroutine per touched shard runs both halves of its ingest; the
	// venue lock is released between them, once every shard has applied.
	var applied, done sync.WaitGroup
	errs := make([]error, len(v.shards))
	for si := range v.shards {
		if len(perMs[si]) == 0 {
			continue
		}
		applied.Add(1)
		done.Add(1)
		go func(si int) {
			defer done.Done()
			p, err := v.shards[si].reserve(perMs[si], perSeq[si])
			applied.Done()
			if err == nil {
				err = p.wait()
			}
			errs[si] = err
		}(si)
	}
	applied.Wait()
	v.ingestMu.Unlock()
	done.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Oracle returns a point-in-time copy of a venue's uniqueness oracle. A
// multi-shard venue's oracle is assembled by merging per-shard oracle clones
// (core.Merge) — bitwise identical to a one-shard oracle over the same
// inserts, because counting filters add with saturation and the verification
// filter ORs. A venue that does not exist yet answers the configuration's
// empty oracle, so a wardriver can download before its first upload.
func (r *Router) Oracle(venueName string) (*core.Oracle, error) {
	v := r.lookup(venueName)
	if v == nil {
		return core.New(r.cfg.Oracle)
	}
	merged, err := v.shards[0].OracleClone()
	if err != nil {
		return nil, err
	}
	for _, sh := range v.shards[1:] {
		clone, err := sh.OracleClone()
		if err != nil {
			return nil, err
		}
		if err := core.Merge(merged, clone); err != nil {
			return nil, err
		}
	}
	return merged, nil
}

// OracleBlob serializes a venue's uniqueness oracle (see Oracle),
// gzip-compressed — the payload a client downloads on first start
// ("approximately 10MB" in the paper's testing).
func (r *Router) OracleBlob(venueName string) ([]byte, error) {
	o, err := r.Oracle(venueName)
	if err != nil {
		return nil, err
	}
	return bloom.GzipBytes(o)
}

// oracleEpoch sums the shard version identities. Both coordinates are
// monotonic per shard, so the sums are monotonic venue-wide — the property
// the unchanged check needs. The sum can be torn across shards under a
// concurrent ingest; callers tolerate that by reading it before any oracle
// snapshot (a stale cited version only costs the client an extra sync).
func (v *venue) oracleEpoch() (epoch, inserts uint64) {
	for _, sh := range v.shards {
		e, i := sh.OracleEpoch()
		epoch += e
		inserts += i
	}
	return epoch, inserts
}

// OracleSyncSince answers a versioned oracle sync for a venue. A one-shard
// venue is served from the shard engine's delta ring; a multi-shard venue has
// no single delta history (its oracle is assembled per request), so it is
// versioned by the shard sums and served unchanged-or-full — as is a venue
// that does not exist yet, at version (0, 0), which is exactly where a
// one-shard venue's delta chain will start.
func (r *Router) OracleSyncSince(venueName string, haveEpoch, haveInserts uint64) (OracleSyncResult, error) {
	v := r.lookup(venueName)
	var res OracleSyncResult
	if v != nil {
		if len(v.shards) == 1 {
			return v.shards[0].OracleSyncSince(haveEpoch, haveInserts)
		}
		// Read the version before assembling the blob: an ingest racing the
		// clones can only make the blob newer than the stamped version, which
		// a later sync repairs — stamping newer than the blob would instead
		// let the unchanged check strand a stale client.
		res.Epoch, res.Inserts = v.oracleEpoch()
	}
	if haveEpoch == res.Epoch && haveInserts == res.Inserts {
		res.Unchanged = true
		return res, nil
	}
	blob, err := r.OracleBlob(venueName)
	if err != nil {
		return OracleSyncResult{}, err
	}
	res.Blob = blob
	return res, nil
}

// VenueEpochSignal returns a venue's version identity plus a channel closed
// by the next epoch bump after it (see Database.EpochSignal for the
// no-missed-wakeup argument). A venue that does not exist yet reports
// version (0, 0) and a channel closed by the next venue creation, so a
// subscription parks until the venue's first ingest. A multi-shard venue
// merges the per-shard signals through funnel goroutines; stop bounds their
// lifetime — pass the subscriber's cancellation so an idle venue doesn't
// accumulate them.
func (r *Router) VenueEpochSignal(venueName string, stop <-chan struct{}) (epoch, inserts uint64, ch <-chan struct{}) {
	r.mu.RLock()
	v, created := r.venues[venueName], r.created
	r.mu.RUnlock()
	if v == nil {
		return 0, 0, created
	}
	if len(v.shards) == 1 {
		return v.shards[0].EpochSignal()
	}
	merged := make(chan struct{})
	var once sync.Once
	for _, sh := range v.shards {
		e, i, c := sh.EpochSignal()
		epoch += e
		inserts += i
		go func(c <-chan struct{}) {
			select {
			case <-c:
				once.Do(func() { close(merged) })
			case <-stop:
			case <-merged: // another shard fired; don't park on a quiet one
			}
		}(c)
	}
	return epoch, inserts, merged
}

// Stats aggregates a venue's shard stats. A venue that does not exist
// reports zeros (consistent with Len).
func (r *Router) Stats(venueName string) DBStats {
	v := r.lookup(venueName)
	if v == nil {
		return DBStats{}
	}
	var agg DBStats
	for _, sh := range v.shards {
		s := sh.Stats()
		agg.Mappings += s.Mappings
		agg.DatabaseBytes += s.DatabaseBytes
		agg.OracleInserts += s.OracleInserts
		agg.WALBytes += s.WALBytes
		if s.Persistent {
			agg.Persistent = true
		}
		if s.SnapshotSeq > agg.SnapshotSeq {
			agg.SnapshotSeq = s.SnapshotSeq
		}
		if s.LastCompactionUnix > agg.LastCompactionUnix {
			agg.LastCompactionUnix = s.LastCompactionUnix
		}
	}
	return agg
}
