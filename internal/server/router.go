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
	"visualprint/internal/pose"
	"visualprint/internal/sift"
	"visualprint/internal/track"
)

// Router fans requests out across venues and, within a venue, across spatial
// shards. It is the multi-tenant layer in front of the shard engines: every
// wire request optionally carries a venue name (in its header), the default
// venue (the empty name) maps to the plain Database the server was built
// with, and each named venue owns an isolated set of shard engines — its own
// LSH indexes, oracles, and WAL/snapshot directories. Venues are lazily
// created on first ingest (and on oracle fetch); querying a venue that was
// never ingested returns ErrEmptyDatabase, which is the cross-venue
// isolation guarantee the tests pin.
//
// Locate on a multi-shard venue is scatter-gather: every shard retrieves its
// per-keypoint candidate sets in parallel (CandidateSets), the router merges
// them under the venue-wide total order (DistSq, probe ordinal, ingest
// sequence) and runs the shared clustering/pose tail (solveCandidates). The
// merged candidate list is bit-identical to what one unsharded database
// holding the same mappings in the same ingest order would have produced —
// see MergeCand for the ordering argument and TestRouterLocateBitIdentical
// for the pinned proof. The one semantic difference is freshness, not
// ranking: a Locate racing an Ingest may observe a prefix of the batch
// (per-shard reads are not a venue-wide atomic snapshot); quiesced, the
// results are exact.
type Router struct {
	cfg DatabaseConfig
	def *Database // default venue ("")

	mu     sync.RWMutex
	venues map[string]*venue
	dir    string // venues root directory; "" while in-memory
	// pre maps venue names to configurations fixed before first ingest
	// (shard count, cell size); venues absent from the map get defaults.
	pre map[string]VenueConfig

	// Observability (nil until instrument): per-venue request counters are
	// created on this registry as venues appear.
	reg       *obs.Registry
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

// venue is one named tenant: its shard engines plus the sequence counter
// that stamps venue-wide ingest order onto every mapping.
type venue struct {
	name   string
	cfg    VenueConfig
	shards []*Database

	// ingestMu serializes ingests venue-wide: sequence assignment and the
	// per-shard applies happen under it, so every shard observes a strictly
	// increasing subsequence of the venue sequence (IngestSeq's contract).
	ingestMu sync.Mutex
	nextSeq  uint64

	// Per-venue counters (nil without observability).
	locates *obs.Counter
	ingests *obs.Counter
}

// NewRouter builds a router over def as the default venue. Named venues are
// created lazily with def's configuration.
func NewRouter(def *Database, cfg DatabaseConfig) *Router {
	r := &Router{
		cfg:    cfg,
		def:    def,
		venues: make(map[string]*venue),
		pre:    make(map[string]VenueConfig),
	}
	r.trk.Store(&trackState{tb: track.New(track.DefaultConfig())})
	return r
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

func (r *Router) logf(format string, args ...any) {
	r.mu.RLock()
	l := r.log
	r.mu.RUnlock()
	if l != nil {
		l.Infof(format, args...)
	}
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

// Default returns the default venue's database.
func (r *Router) Default() *Database { return r.def }

// Venues returns the sorted names of all live named venues.
func (r *Router) Venues() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.venues))
	for n := range r.venues {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// instrument attaches the server registry; venues created afterwards get
// per-venue request counters (venue_<name>_locates / _ingests), and the
// venues gauge tracks the live venue count.
func (r *Router) instrument(reg *obs.Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.reg != nil || reg == nil {
		return
	}
	r.reg = reg
	r.venueGage = reg.Gauge("venues")
	for _, v := range r.venues {
		v.locates = reg.Counter("venue_" + v.name + "_locates")
		v.ingests = reg.Counter("venue_" + v.name + "_ingests")
	}
	r.venueGage.Set(int64(len(r.venues)))
	// Re-publish the tracking state with instruments attached (the table's
	// session gauge starts at the current — normally zero — count).
	if st := r.trk.Load(); st != nil {
		ns := &trackState{tb: st.tb, tm: newTrackMetrics(reg)}
		ns.tb.Instrument(reg)
		r.trk.Store(ns)
	}
}

// venueMetaFile is the per-venue topology record inside the venue directory.
const venueMetaFile = "meta.json"

// venuesSubdir is the directory under the server data dir holding one
// subdirectory per named venue. The default venue keeps the legacy layout at
// the data dir root, so pre-venue data directories open unchanged.
const venuesSubdir = "venues"

// shardDirName names shard i's store directory inside a venue directory.
func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// OpenVenues attaches dir as the venues root: every venue recorded under
// dir/venues is recovered (topology from meta.json, each shard from its own
// store directory, the venue sequence counter from the shards' high-water
// marks), and venues created later are durable under the same root. The
// default venue's own directory is managed separately by Database.Open.
func (r *Router) OpenVenues(dir string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dir != "" {
		return errors.New("server: router already has a venues directory")
	}
	if len(r.venues) != 0 {
		return errors.New("server: OpenVenues requires no live venues")
	}
	root := filepath.Join(dir, venuesSubdir)
	entries, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			r.dir = dir
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
		v, err := r.buildVenueLocked(name, vc.withDefaults(), filepath.Join(root, name))
		if err != nil {
			return err
		}
		r.venues[name] = v
	}
	r.dir = dir
	if r.venueGage != nil {
		r.venueGage.Set(int64(len(r.venues)))
	}
	return nil
}

// buildVenueLocked constructs a venue's shard engines, attaching durable
// stores when venueDir is non-empty. Callers hold r.mu.
func (r *Router) buildVenueLocked(name string, vc VenueConfig, venueDir string) (*venue, error) {
	v := &venue{name: name, cfg: vc}
	for i := 0; i < vc.Shards; i++ {
		sh, err := NewShardDatabase(r.cfg)
		if err != nil {
			return nil, err
		}
		if venueDir != "" {
			if err := sh.Open(filepath.Join(venueDir, shardDirName(i))); err != nil {
				for _, prev := range v.shards {
					prev.Close()
				}
				return nil, fmt.Errorf("server: venue %q shard %d: %w", name, i, err)
			}
		}
		v.shards = append(v.shards, sh)
	}
	for _, sh := range v.shards {
		if s := sh.MaxSeq(); s >= v.nextSeq {
			v.nextSeq = s + 1
		}
	}
	if v.nextSeq == 0 {
		v.nextSeq = 1
	}
	if r.reg != nil {
		v.locates = r.reg.Counter("venue_" + name + "_locates")
		v.ingests = r.reg.Counter("venue_" + name + "_ingests")
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
// or default topology, durable when a venues root is attached) on first use.
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
	venueDir := ""
	if r.dir != "" {
		venueDir = filepath.Join(r.dir, venuesSubdir, name)
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
	v, err := r.buildVenueLocked(name, vc, venueDir)
	if err != nil {
		return nil, err
	}
	r.venues[name] = v
	if r.venueGage != nil {
		r.venueGage.Set(int64(len(r.venues)))
	}
	// r.mu is held: read r.log directly instead of via logf.
	if r.log != nil {
		r.log.Infof("server: venue %q created (%d shard(s))", name, vc.Shards)
	}
	return v, nil
}

// Close releases every named venue's durable resources. The default venue's
// database is owned by the caller and left untouched.
func (r *Router) Close() error {
	r.mu.Lock()
	venues := r.venues
	r.venues = make(map[string]*venue)
	r.dir = ""
	r.mu.Unlock()
	var first error
	for _, v := range venues {
		for _, sh := range v.shards {
			if err := sh.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Compact folds every named venue's shards into fresh durable snapshots
// (in-memory shards are skipped). The default venue is compacted by its
// owner.
func (r *Router) Compact() error {
	r.mu.RLock()
	var shards []*Database
	for _, v := range r.venues {
		shards = append(shards, v.shards...)
	}
	r.mu.RUnlock()
	for _, sh := range shards {
		sh.mu.RLock()
		st := sh.store
		sh.mu.RUnlock()
		if st == nil {
			continue
		}
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
	if venueName == "" {
		return r.def.Len()
	}
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
// the venue's total mapping count after the batch. Within a named venue,
// every mapping is stamped with the next venue-global sequence number and
// routed to the shard owning its spatial cell; the whole batch is applied
// under the venue's ingest lock so each shard sees sequence numbers in
// order. The shard applies fan out in parallel — each shard fsyncs its own
// WAL — and the call returns once every shard has acknowledged.
func (r *Router) Ingest(ctx context.Context, venueName string, ms []Mapping) (total int, err error) {
	if venueName == "" {
		if err := r.def.Ingest(ctx, ms); err != nil {
			return 0, err
		}
		return r.def.Len(), nil
	}
	v, err := r.getOrCreate(venueName)
	if err != nil {
		return 0, err
	}
	if v.ingests != nil {
		v.ingests.Inc()
	}
	v.ingestMu.Lock()
	defer v.ingestMu.Unlock()
	perMs := make([][]Mapping, len(v.shards))
	perSeq := make([][]uint64, len(v.shards))
	for i := range ms {
		si := v.shardFor(ms[i].Pos)
		perMs[si] = append(perMs[si], ms[i])
		perSeq[si] = append(perSeq[si], v.nextSeq)
		v.nextSeq++
	}
	var wg sync.WaitGroup
	errs := make([]error, len(v.shards))
	for si := range v.shards {
		if len(perMs[si]) == 0 {
			continue
		}
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			errs[si] = v.shards[si].IngestSeq(ctx, perMs[si], perSeq[si])
		}(si)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return 0, e
		}
	}
	return v.len(), nil
}

// Locate answers a localization query against a venue. A venue that was
// never ingested (or the empty default database) returns ErrEmptyDatabase.
// Single-shard venues delegate to the shard's own Locate; multi-shard venues
// run the scatter-gather merge documented on Router.
func (r *Router) Locate(ctx context.Context, venueName string, kps []sift.Keypoint, intr pose.Intrinsics) (LocateResult, error) {
	if venueName == "" {
		return r.def.Locate(ctx, kps, intr)
	}
	v := r.lookup(venueName)
	if v == nil {
		return LocateResult{}, ErrEmptyDatabase
	}
	if v.locates != nil {
		v.locates.Inc()
	}
	if len(v.shards) == 1 {
		return v.shards[0].Locate(ctx, kps, intr)
	}
	res, _, err := r.locateSharded(ctx, v, kps, intr, nil)
	return res, err
}

// locateSharded is the scatter-gather Locate: per-shard candidate retrieval
// in parallel, merge under the venue total order, shared solve tail. A
// non-nil ws threads a session prior into the tail (warm solve with cold
// fallback — "router affinity": the prior applies after the shard fan-out
// merge, so any shard topology reuses it); the bool reports warm
// acceptance and is always false when ws is nil.
func (r *Router) locateSharded(ctx context.Context, v *venue, kps []sift.Keypoint, intr pose.Intrinsics, ws *warmSolve) (LocateResult, bool, error) {
	if v.len() == 0 {
		return LocateResult{}, false, ErrEmptyDatabase
	}
	if err := ctx.Err(); err != nil {
		return LocateResult{}, false, ctxError(err)
	}
	t0 := time.Now()
	sets := make([][][]MergeCand, len(v.shards))
	errs := make([]error, len(v.shards))
	var wg sync.WaitGroup
	for si := range v.shards {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sets[si], errs[si] = v.shards[si].CandidateSets(ctx, kps)
		}(si)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return LocateResult{}, false, e
		}
	}
	// Merge per keypoint: concatenate the shard sets, restore the venue
	// total order, truncate to the single-database candidate cap, then gate
	// on descriptor distance — the same truncate-then-gate sequence as
	// Database.candidatesFor, in the same order.
	n := r.cfg.NeighborsPerKeypoint
	var cands []locateCand
	var merged []MergeCand
	for k := range kps {
		merged = merged[:0]
		for si := range sets {
			merged = append(merged, sets[si][k]...)
		}
		sort.Slice(merged, func(i, j int) bool { return compareMergeCands(merged[i], merged[j]) < 0 })
		if n > 0 && len(merged) > n {
			merged = merged[:n]
		}
		for _, c := range merged {
			if r.cfg.MaxMatchDistSq > 0 && c.DistSq > r.cfg.MaxMatchDistSq {
				continue
			}
			cands = append(cands, locateCand{px: kps[k].X, py: kps[k].Y, p: c.Pos})
		}
	}
	// Union of per-shard bounds == the unsharded database's bounds
	// (per-axis min/max commute across any partition of the mappings).
	var lo, hi mathx.Vec3
	have := false
	for _, sh := range v.shards {
		slo, shi, ok := sh.Bounds()
		if !ok {
			continue
		}
		if !have {
			lo, hi, have = slo, shi, true
			continue
		}
		lo.X, lo.Y, lo.Z = math.Min(lo.X, slo.X), math.Min(lo.Y, slo.Y), math.Min(lo.Z, slo.Z)
		hi.X, hi.Y, hi.Z = math.Max(hi.X, shi.X), math.Max(hi.Y, shi.Y), math.Max(hi.Z, shi.Z)
	}
	m := r.def.metrics()
	tr := m.trace.Begin("locate")
	tr.StageSince(obs.StageLSHQuery, t0)
	var res LocateResult
	var warm bool
	var err error
	if ws != nil {
		res, warm, err = solveWarmThenCold(ctx, r.cfg, cands, lo, hi, intr, tr, *ws)
	} else {
		res, err = solveCandidates(ctx, r.cfg, cands, lo, hi, intr, tr)
	}
	m.locateNs.Observe(m.trace.End(tr))
	m.locates.Inc()
	if err != nil {
		m.locateErrors.Inc()
	}
	return res, warm, err
}

// OracleBlob serializes a venue's uniqueness oracle, gzip-compressed. A
// multi-shard venue's oracle is assembled by merging per-shard oracle clones
// (core.Merge) — bitwise identical to an unsharded oracle over the same
// inserts, because counting filters add with saturation and the verification
// filter ORs. Fetching the oracle of a venue that does not exist yet creates
// it, so a wardriver can download-before-first-upload like on the default
// venue.
func (r *Router) OracleBlob(venueName string) ([]byte, error) {
	if venueName == "" {
		return r.def.OracleBlob()
	}
	v, err := r.getOrCreate(venueName)
	if err != nil {
		return nil, err
	}
	if len(v.shards) == 1 {
		return v.shards[0].OracleBlob()
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
	return bloom.GzipBytes(merged)
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

// OracleSyncSince answers a versioned oracle sync for a venue. Single-shard
// venues delegate to the shard engine's delta ring; a multi-shard venue has
// no single delta history (its oracle is assembled per request), so it is
// versioned by the shard sums and served unchanged-or-full. Like
// OracleBlob, syncing a venue that does not exist yet creates it.
func (r *Router) OracleSyncSince(venueName string, haveEpoch, haveInserts uint64) (OracleSyncResult, error) {
	if venueName == "" {
		return r.def.OracleSyncSince(haveEpoch, haveInserts)
	}
	v, err := r.getOrCreate(venueName)
	if err != nil {
		return OracleSyncResult{}, err
	}
	if len(v.shards) == 1 {
		return v.shards[0].OracleSyncSince(haveEpoch, haveInserts)
	}
	// Read the version before assembling the blob: an ingest racing the
	// clones can only make the blob newer than the stamped version, which a
	// later sync repairs — stamping newer than the blob would instead let
	// the unchanged check strand a stale client.
	epoch, inserts := v.oracleEpoch()
	res := OracleSyncResult{Epoch: epoch, Inserts: inserts}
	if haveEpoch == epoch && haveInserts == inserts {
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
// no-missed-wakeup argument). A multi-shard venue merges the per-shard
// signals through funnel goroutines; stop bounds their lifetime — pass the
// subscriber's cancellation so an idle venue doesn't accumulate them.
func (r *Router) VenueEpochSignal(venueName string, stop <-chan struct{}) (epoch, inserts uint64, ch <-chan struct{}, err error) {
	if venueName == "" {
		e, i, c := r.def.EpochSignal()
		return e, i, c, nil
	}
	v, err := r.getOrCreate(venueName)
	if err != nil {
		return 0, 0, nil, err
	}
	if len(v.shards) == 1 {
		e, i, c := v.shards[0].EpochSignal()
		return e, i, c, nil
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
	return epoch, inserts, merged, nil
}

// Stats aggregates a venue's shard stats. A venue that does not exist
// reports zeros (consistent with Len).
func (r *Router) Stats(venueName string) DBStats {
	if venueName == "" {
		return r.def.Stats()
	}
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
