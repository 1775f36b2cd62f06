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
	"time"

	"visualprint/internal/bloom"
	"visualprint/internal/core"
	"visualprint/internal/hash"
	"visualprint/internal/mathx"
	"visualprint/internal/obs"
	"visualprint/internal/sift"
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
// (0, 0)).
//
// Locate has one route and one body: venue → published shard views → gather →
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
	// pre maps venue names to the shard counts fixed at construction; venues
	// absent from the map get one shard. Immutable.
	pre map[string]int

	mu sync.RWMutex
	// venues holds every live venue, the default one under the empty name.
	venues map[string]*venue
	dir    string // data directory; "" while in-memory

	// Observability, built by NewRouter: met is the engine instrument set
	// the default venue's shard records into, shardMet its gauge-less copy
	// for every other shard; per-venue request counters are created on
	// met's registry as venues appear, and venueGage counts named venues.
	met       *dbMetrics
	shardMet  *dbMetrics
	venueGage *obs.Gauge

	// trk is the continuous-localization session table and tm its
	// instruments (see track.go).
	trk *track.Table
	tm  trackMetrics
	// now is the session clock the motion model reads: time.Now, swapped
	// only by tests.
	now func() time.Time

	// defaultOnly marks a replicated server's router, fixed by
	// NewDefaultVenueRouter: replication covers only the default venue, so
	// every named venue is refused.
	defaultOnly bool
}

// venueCellSize is the edge of the spatial cells a multi-shard venue hashes
// mappings by before the cell is assigned to a shard (meters in the
// simulated venues) — a few times the clustering epsilon, so one consensus
// cluster usually lives in O(1) cells and per-shard WAL batches stay
// coherent. It decides only which shard a new mapping lands on, never an
// answer: the merge order is position-agnostic (TestRouterLocateBitIdentical*).
const venueCellSize = 4.0

// venueMeta is a named venue's meta.json: its shard count, immutable once
// the venue exists (resharding is a future roadmap item), so recovery
// rebuilds the same topology. Directories written by earlier versions also
// record "cell_size" (always venueCellSize), which decoding ignores.
type venueMeta struct {
	Shards int `json:"shards"`
}

// venue is one tenant: its shard engines plus the lock under which
// venue-wide ingest order is stamped onto every mapping.
type venue struct {
	shards []*Database

	// ingestMu serializes the stamping and applying of batches venue-wide,
	// so every shard observes a strictly increasing subsequence of the venue
	// sequence (IngestSeq's contract). It is not held across the durability
	// wait.
	ingestMu sync.Mutex

	// Per-venue request counters.
	locates *obs.Counter
	ingests *obs.Counter
}

// NewRouter builds the engine with its empty default venue, its instruments
// and its session table. Named venues are created lazily with the same
// configuration; topo fixes the shard count of the venues it names (values
// below 1 mean 1) — a venue created by its first ingest takes it, and a venue
// recovered by OpenVenues must agree with it. Venues absent from topo get one
// shard. A configuration whose LSH family does not hash SIFT descriptors
// (Dim other than sift.DescriptorSize) is refused here, so no ingest has to
// check it.
//
// Every instrument exists from here on: one set serves every shard of every
// venue, so all venues record into the same locates / locate_ns / ingest_ns
// / stage_* instruments; the per-engine gauges (mappings, recovery_ns,
// wal_bytes, snapshot_bytes) report the default venue. Venues add a
// request-counter pair (venue_<name>_locates / _ingests), and the venues
// gauge tracks the live named-venue count.
func NewRouter(cfg DatabaseConfig, topo map[string]int) (*Router, error) {
	if d := cfg.Oracle.LSH.Dim; d != sift.DescriptorSize {
		return nil, fmt.Errorf("server: LSH family dimension %d, want the SIFT descriptor's %d", d, sift.DescriptorSize)
	}
	pre := make(map[string]int, len(topo))
	for name, n := range topo {
		if !validVenueName(name) {
			return nil, fmt.Errorf("server: invalid venue name %q", name)
		}
		pre[name] = max(n, 1)
	}
	reg := obs.NewRegistry()
	met := newDBMetrics(reg)
	r := &Router{
		cfg:       cfg,
		pre:       pre,
		venues:    make(map[string]*venue),
		met:       met,
		shardMet:  met.withoutGauges(),
		venueGage: reg.Gauge("venues"),
		trk:       track.New(reg),
		tm:        newTrackMetrics(reg),
		now:       time.Now,
	}
	// The wire instruments live on the same registry (Serve builds them
	// from Registry); registering them here lets an in-process report
	// list the same names before any listener exists.
	newSrvMetrics(reg)
	def, err := r.buildVenueLocked("", 1)
	if err != nil {
		return nil, err
	}
	r.venues[""] = def
	return r, nil
}

// NewDefaultVenueRouter is NewRouter for a replicated server. Replication
// ships only the default venue's log and holds only its acks for the
// semi-sync quorum, so this router serves the default venue alone: an ingest
// into or a query of a named venue answers ErrVenueNotReplicated, and
// OpenVenues refuses a data directory that records one. Nothing is
// acknowledged that a failover could lose.
func NewDefaultVenueRouter(cfg DatabaseConfig) (*Router, error) {
	r, err := NewRouter(cfg, nil)
	if err != nil {
		return nil, err
	}
	r.defaultOnly = true
	return r, nil
}

// admit refuses a named venue on a default-venue-only router.
func (r *Router) admit(venueName string) error {
	if r.defaultOnly && venueName != "" {
		return ErrVenueNotReplicated
	}
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

// Registry returns the registry every engine, session and wire instrument
// of this router records into — what the metrics RPC and the debug listener
// report.
func (r *Router) Registry() *obs.Registry { return r.met.reg }

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
// created later are durable under the same root. A recorded venue whose
// shard count disagrees with the topology NewRouter was given is refused:
// its mappings are partitioned for the recorded count, and so is any
// recorded named venue on a NewDefaultVenueRouter. It must run before any
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
		if err := r.admit(name); err != nil {
			return fmt.Errorf("server: venue %q is recorded under %s: %w", name, r.dir, err)
		}
		meta, err := os.ReadFile(filepath.Join(root, name, venueMetaFile))
		if err != nil {
			return fmt.Errorf("server: venue %q: %w", name, err)
		}
		var vm venueMeta
		if err := json.Unmarshal(meta, &vm); err != nil {
			return fmt.Errorf("server: venue %q meta: %w", name, err)
		}
		shards := max(vm.Shards, 1)
		if want, ok := r.pre[name]; ok && want != shards {
			return fmt.Errorf("server: venue %q is configured with %d shard(s) but its %s records %d; resharding is not supported",
				name, want, venueMetaFile, shards)
		}
		v, err := r.buildVenueLocked(name, shards)
		if err != nil {
			return err
		}
		r.venues[name] = v
	}
	return nil
}

// buildVenueLocked constructs a venue's shard engines with their
// instruments and the router's logger, attaching durable stores when the
// router has a data directory. Callers hold r.mu (or own the router
// exclusively).
func (r *Router) buildVenueLocked(name string, shards int) (*venue, error) {
	m := r.shardMet
	if name == "" {
		m = r.met
	}
	v := &venue{
		locates: m.reg.Counter("venue_" + name + "_locates"),
		ingests: m.reg.Counter("venue_" + name + "_ingests"),
	}
	for i := 0; i < shards; i++ {
		sh, err := newDatabase(r.cfg, m)
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
	shards, ok := r.pre[name]
	if !ok {
		shards = 1
	}
	if r.dir != "" {
		venueDir := filepath.Join(r.dir, venuesSubdir, name)
		if err := os.MkdirAll(venueDir, 0o755); err != nil {
			return nil, err
		}
		meta, err := json.Marshal(venueMeta{Shards: shards})
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(venueDir, venueMetaFile), meta, 0o644); err != nil {
			return nil, err
		}
	}
	v, err := r.buildVenueLocked(name, shards)
	if err != nil {
		return nil, err
	}
	r.venues[name] = v
	r.venueGage.Set(int64(len(r.venues) - 1))
	obs.Infof("server: venue %q created (%d shard(s))", name, shards)
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
	var buf [12]byte
	binary.LittleEndian.PutUint32(buf[0:], uint32(int32(math.Floor(p.X/venueCellSize))))
	binary.LittleEndian.PutUint32(buf[4:], uint32(int32(math.Floor(p.Y/venueCellSize))))
	binary.LittleEndian.PutUint32(buf[8:], uint32(int32(math.Floor(p.Z/venueCellSize))))
	return int(hash.Sum64(buf[:], 0x5eed) % uint64(len(v.shards)))
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
// round trip. The call returns once every shard has acknowledged. A
// NewDefaultVenueRouter refuses a named venue with ErrVenueNotReplicated.
//
// The context gates admission only (see Database.IngestSeq).
func (r *Router) Ingest(ctx context.Context, venueName string, ms []Mapping) (total int, err error) {
	if err := ctx.Err(); err != nil {
		return 0, ctxError(err)
	}
	if err := r.admit(venueName); err != nil {
		return 0, err
	}
	v, err := r.getOrCreate(venueName)
	if err != nil {
		return 0, err
	}
	v.ingests.Inc()
	start := time.Now()
	err = v.ingest(ms)
	r.met.endIngest(start, err)
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
// multi-shard venue's oracle is assembled by merging every other shard's
// published oracle into a clone of the first's (core.Merge) — bitwise identical to a one-shard oracle over the same
// inserts, because counting filters add with saturation and the verification
// filter ORs. A venue that does not exist yet answers the configuration's
// empty oracle, so a wardriver can download before its first upload.
func (r *Router) Oracle(venueName string) (*core.Oracle, error) {
	v := r.lookup(venueName)
	if v == nil {
		return core.New(r.cfg.Oracle)
	}
	merged := v.shards[0].OracleClone()
	for _, sh := range v.shards[1:] {
		if err := core.Merge(merged, sh.cur.Load().oracle); err != nil {
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

// Stats aggregates a venue's shard stats. A venue that does not exist
// reports zeros.
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
