package visualprint

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"visualprint/internal/cluster"
	"visualprint/internal/codec"
	"visualprint/internal/core"
	"visualprint/internal/lsh"
	"visualprint/internal/obs"
	"visualprint/internal/odelta"
	"visualprint/internal/pose"
	"visualprint/internal/repl"
	"visualprint/internal/server"
	"visualprint/internal/sift"
	"visualprint/internal/track"
)

// Configuration substrate types, re-exported so ServerConfig is expressible
// entirely in terms of this package's surface.
type (
	// LSHParams configures the locality-sensitive hash family indexing the
	// keypoint-to-3D lookup table.
	LSHParams = lsh.Params
	// ClusterParams tunes the density clustering that picks the consensus
	// 3D candidate cloud before pose solving.
	ClusterParams = cluster.Params
	// PoseOptions tunes the differential-evolution pose solver.
	PoseOptions = pose.Options
)

// ServerConfig configures the cloud service: index family, oracle sizing,
// candidate retrieval, clustering, pose solving and persistence thresholds.
// It is owned by this package — field-for-field convertible to the internal
// engine configuration, but no longer an alias leaking internal types.
// Start from DefaultServerConfig and override fields as needed; the zero
// value is not a working configuration.
type ServerConfig struct {
	// LSH selects the hash family of the keypoint lookup table.
	LSH LSHParams
	// Oracle sizes the uniqueness oracle (counting Bloom filters).
	Oracle OracleParams
	// NeighborsPerKeypoint is n in the paper's |K|*n candidate retrieval.
	NeighborsPerKeypoint int
	// MaxMatchDistSq rejects LSH candidates farther (squared Euclidean)
	// than this from the query descriptor; 0 accepts everything.
	MaxMatchDistSq int
	// Cluster tunes consensus clustering over the 3D candidates.
	Cluster ClusterParams
	// Pose tunes the pose solver.
	Pose PoseOptions
	// LocateParallelism bounds the per-query LSH retrieval worker pool
	// (0 = GOMAXPROCS, 1 = serial).
	LocateParallelism int
	// WALCompactBytes is the write-ahead-log size past which the
	// background snapshotter folds the log into a fresh snapshot (0 =
	// engine default). Only meaningful for a durable server (OpenData).
	WALCompactBytes int64
	// OracleDeltaWindow bounds how many recent oracle epochs keep
	// compressed cell-delta records for versioned OracleSync requests:
	// clients within the window refresh by delta chain, older clients
	// full-sync. 0 is the engine default (64 epochs); negative disables
	// delta retention entirely.
	OracleDeltaWindow int
	// OracleDeltaBudgetBytes caps the bytes retained by the delta window
	// (0 = engine default, 64 MB).
	OracleDeltaBudgetBytes int64
}

// engine converts the public configuration to the internal engine's. The
// two structs are intentionally field-identical; the compiler enforces it.
func (c ServerConfig) engine() server.DatabaseConfig { return server.DatabaseConfig(c) }

// DefaultServerConfig returns a configuration scaled for simulated venues.
func DefaultServerConfig() ServerConfig {
	return ServerConfig(server.DefaultDatabaseConfig())
}

// VenueConfig fixes a named venue's shard topology: how many shard engines
// its mappings are partitioned across and the spatial cell size used as the
// partition key. Topology is immutable once the venue exists and is
// persisted alongside the venue's data.
type VenueConfig = server.VenueConfig

// Server is the VisualPrint cloud service: the LSH keypoint-to-3D lookup
// table, the uniqueness oracle, and the localization pipeline, served over
// a length-prefixed binary TCP protocol. A Server hosts any number of
// venues: the default venue (the empty name) preserves the original
// single-tenant behavior, and named venues — created on first ingest — each
// own an isolated set of spatial shard engines with their own indexes,
// oracles and durable directories.
type Server struct {
	db      *server.Database
	router  *server.Router
	srv     *server.Server
	debug   *http.Server
	netOpts []server.Option
	durable bool

	// Replication fleet state (nil unless WithReplication; see
	// internal/repl). rs is the role/offset control block shared with the
	// serving layer; node is the background tail/full-sync loop.
	rs   *server.ReplState
	node *repl.Node
}

// serverOptions collects what ServerOption closures configure before the
// Server exists.
type serverOptions struct {
	net    []server.Option
	venues map[string]VenueConfig
	repl   *ReplicationOptions
}

// ServerOption configures a Server at construction: the network front end's
// admission-control bounds and drain behavior, and venue shard topologies.
// It is a root-owned functional option (no longer an alias of an internal
// type); options are applied by NewServer, network options take effect at
// Listen.
type ServerOption func(*serverOptions)

// WithMaxInFlight bounds concurrently executing requests; n <= 0 removes
// the bound (and with it, admission control and load shedding).
func WithMaxInFlight(n int) ServerOption {
	return func(o *serverOptions) { o.net = append(o.net, server.WithMaxInFlight(n)) }
}

// WithQueueDepth bounds requests waiting for an execution slot; arrivals
// beyond the bound are shed immediately with ErrOverloaded. The default is
// a generous multiple of the in-flight bound.
func WithQueueDepth(n int) ServerOption {
	return func(o *serverOptions) { o.net = append(o.net, server.WithQueueDepth(n)) }
}

// WithDrainTimeout bounds how long Shutdown waits for in-flight requests
// when its context has no deadline of its own; past it, remaining work is
// canceled. 0 (the default) waits indefinitely.
func WithDrainTimeout(d time.Duration) ServerOption {
	return func(o *serverOptions) { o.net = append(o.net, server.WithDrainTimeout(d)) }
}

// WithVenueShards fixes the shard count a named venue is created with. The
// topology applies when the venue first comes to life (first ingest, or
// recovery via OpenData); it cannot change afterwards. Venues without a
// configured topology default to a single shard.
func WithVenueShards(venue string, shards int) ServerOption {
	return WithVenueTopology(venue, VenueConfig{Shards: shards})
}

// WithVenueTopology is WithVenueShards with full control (shard count and
// spatial cell size).
func WithVenueTopology(venue string, cfg VenueConfig) ServerOption {
	return func(o *serverOptions) {
		if o.venues == nil {
			o.venues = make(map[string]VenueConfig)
		}
		o.venues[venue] = cfg
	}
}

// ReplicationOptions makes a server a member of a read-scaled replication
// fleet: one primary accepts writes and streams its write-ahead log to any
// number of replicas, which serve reads from byte-identical state; a
// sentinel process (cmd/vpsentinel, or repl.Sentinel in-process) promotes
// the most-caught-up replica when the primary dies. Replication covers the
// server's default venue and requires a durable server (OpenData before
// Listen).
type ReplicationOptions struct {
	// Advertise is the address fleet peers and redirected clients reach
	// this node at (the bind address is often ":0" or a wildcard, so it
	// cannot be inferred). Required.
	Advertise string
	// Primary, when non-empty, starts the node as a replica of that
	// address. Empty starts it as the primary.
	Primary string
	// MinSyncReplicas, when > 0, makes the primary semi-synchronous: an
	// ingest is acknowledged only once that many replicas confirmed it
	// durable — the failover guarantee that a promoted replica holds every
	// acknowledged write as long as fewer than MinSyncReplicas replicas die
	// with the primary. 0 acknowledges on local durability alone.
	MinSyncReplicas int
	// SyncTimeout bounds the semi-sync wait (default 5s); expiry fails the
	// ingest with ErrReplSyncTimeout (the write is locally durable but
	// under-replicated).
	SyncTimeout time.Duration
	// MaxStaleness is how long a replica serves reads after losing contact
	// with its primary before redirecting clients to it (default 3s).
	MaxStaleness time.Duration
}

// WithReplication enrolls the server in a replication fleet.
func WithReplication(o ReplicationOptions) ServerOption {
	return func(so *serverOptions) { so.repl = &o }
}

// NewServer creates a cloud service with an empty default venue. Options
// configure venue topologies immediately and the network front end once
// Listen starts it.
func NewServer(cfg ServerConfig, opts ...ServerOption) (*Server, error) {
	var so serverOptions
	for _, o := range opts {
		if o != nil {
			o(&so)
		}
	}
	ecfg := cfg.engine()
	var db *server.Database
	var err error
	if so.repl != nil {
		if so.repl.Advertise == "" {
			return nil, errors.New("visualprint: ReplicationOptions requires Advertise")
		}
		// Replication streams seq-tagged WAL records; the default venue
		// must run the shard (seq-mode) engine so records re-apply
		// byte-identically on replicas.
		db, err = server.NewShardDatabase(ecfg)
	} else {
		db, err = server.NewDatabase(ecfg)
	}
	if err != nil {
		return nil, err
	}
	s := &Server{db: db, netOpts: so.net}
	if so.repl != nil {
		s.rs = server.NewReplState(db, server.ReplConfig{
			Self:            so.repl.Advertise,
			Primary:         so.repl.Primary,
			MinSyncReplicas: so.repl.MinSyncReplicas,
			SyncTimeout:     so.repl.SyncTimeout,
			MaxStaleness:    so.repl.MaxStaleness,
		})
	}
	s.router = server.NewRouter(db, ecfg)
	for name, vc := range so.venues {
		if err := s.router.ConfigureVenue(name, vc); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// OpenData makes the service durable, backed by the given directory: every
// acknowledged ingest is written to a write-ahead log before it is applied,
// and a background snapshotter periodically folds the log into a compact
// binary snapshot. If the directory already holds data — including data left
// by a crashed process — the prior state is recovered first, bit-identically.
// The default venue keeps the original layout at the directory root (so
// pre-venue data directories open unchanged); named venues live under
// dir/venues/<name>/shard-NNN. Must be called before any ingest; an empty
// dir string is a no-op (the server stays in-memory).
func (s *Server) OpenData(dir string) error {
	if dir == "" {
		return nil
	}
	if err := s.db.Open(dir); err != nil {
		return err
	}
	if err := s.router.OpenVenues(dir); err != nil {
		s.db.Close()
		return err
	}
	s.durable = true
	return nil
}

// Listen starts serving on addr ("host:port"; ":0" picks a free port) and
// returns the bound address. On a replicated server this also starts the
// replication loop: a replica begins tailing (or full-syncing from) its
// primary as soon as the listener is up.
func (s *Server) Listen(addr string) (net.Addr, error) {
	if s.rs != nil && !s.durable {
		return nil, errors.New("visualprint: a replicated server requires a data directory (OpenData before Listen)")
	}
	opts := append([]server.Option{server.WithRouter(s.router)}, s.netOpts...)
	if s.rs != nil {
		opts = append(opts, server.WithReplState(s.rs))
	}
	srv, err := server.ListenAndServe(addr, s.db, opts...)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	if s.rs != nil {
		node, err := repl.StartNode(repl.NodeConfig{DB: s.db, State: s.rs})
		if err != nil {
			srv.Close()
			s.srv = nil
			return nil, err
		}
		s.node = node
	}
	return srv.Addr(), nil
}

// ServeDebug starts an HTTP debug listener on addr serving the metrics
// report as JSON at /debug/metrics and the standard pprof handlers under
// /debug/pprof/. It returns the bound address; Close stops the listener.
// Enables observability on the database if nothing has yet.
func (s *Server) ServeDebug(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.debug = &http.Server{
		Handler: obs.DebugMux(s.db.EnableObs()),
		// A debug port must not let a stalled peer pin a connection
		// forever while it sends its request header.
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func(srv *http.Server) {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			obs.Default().Warnf("visualprint debug listener: %v", err)
		}
	}(s.debug)
	return ln.Addr(), nil
}

// Metrics returns the server's observability report directly (in-process).
// Enables observability on the database if nothing has yet.
func (s *Server) Metrics() MetricsReport {
	return s.db.EnableObs().Report()
}

// Close stops the network listener (if any), the debug listener (if any)
// and, for a durable server, flushes and closes every venue's data.
// In-flight requests are cut off; use Shutdown to drain them gracefully.
func (s *Server) Close() error {
	s.stopRepl()
	var err error
	if s.srv != nil {
		err = s.srv.Close()
	}
	if s.debug != nil {
		if dErr := s.debug.Close(); err == nil {
			err = dErr
		}
	}
	if rErr := s.router.Close(); err == nil {
		err = rErr
	}
	if dbErr := s.db.Close(); err == nil {
		err = dbErr
	}
	return err
}

// Shutdown stops the service gracefully: the listener closes, new requests
// are refused with ErrShuttingDown, and in-flight requests run to
// completion with their responses flushed. If ctx expires first (or the
// WithDrainTimeout bound does, when ctx has no deadline), remaining
// requests are canceled; their pipelines unwind promptly and answer
// ErrCanceled. Every venue's write-ahead log is flushed and its data
// directory closed either way, so an acknowledged ingest is durable across
// a forced drain too. Returns nil on a clean drain, ctx.Err() on a forced
// one.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopRepl()
	var err error
	if s.srv != nil {
		err = s.srv.Shutdown(ctx)
	}
	if s.debug != nil {
		if dErr := s.debug.Close(); err == nil {
			err = dErr
		}
	}
	if rErr := s.router.Close(); err == nil {
		err = rErr
	}
	if dbErr := s.db.Close(); err == nil {
		err = dbErr
	}
	return err
}

// stopRepl tears down the replication loop and control block, first so the
// node stops dialing peers before the listener and database go away. Safe
// to call twice and on a non-replicated server.
func (s *Server) stopRepl() {
	if s.node != nil {
		s.node.Close()
		s.node = nil
	}
	if s.rs != nil {
		s.rs.Close()
	}
}

// ReplStatus reports the server's replication state (role, epoch, applied
// offset, staleness, known primary); the zero value on a non-replicated
// server. It is the in-process equivalent of Client.ReplStatus.
func (s *Server) ReplStatus() ReplStatus {
	if s.rs == nil {
		return ReplStatus{}
	}
	return ReplStatus{
		Role:      s.rs.Role(),
		Epoch:     s.rs.Epoch(),
		Applied:   s.rs.Applied(),
		Staleness: s.rs.Staleness(),
		Primary:   s.rs.PrimaryAddr(),
	}
}

// Database gives direct access to the default venue's engine.
//
// It is a library-only escape hatch for benchmarks and tests that need the
// raw engine: calls through it bypass the service layer entirely — no
// admission control, no load shedding, no per-request metrics, and no venue
// routing. Deployed code (including this repo's cmd/ binaries) should use
// the public Server methods (Ingest, Locate, Stats, Compact), which go
// through the same instrumented paths the network front end uses.
func (s *Server) Database() *server.Database { return s.db }

// ConfigureVenue fixes the shard topology a venue will be created with
// (equivalent to the WithVenueShards option, for topologies decided after
// construction). It must run before the venue's first ingest; configuring a
// live venue returns an error, since resharding is not supported.
func (s *Server) ConfigureVenue(name string, cfg VenueConfig) error {
	return s.router.ConfigureVenue(name, cfg)
}

// Venues returns the sorted names of all live named venues (the default
// venue is not listed).
func (s *Server) Venues() []string { return s.router.Venues() }

// Ingest adds wardriven mappings to the default venue (in-process).
func (s *Server) Ingest(ms []Mapping) error {
	return s.db.Ingest(context.Background(), ms)
}

// IngestContext is Ingest under a context: cancellation is honored before
// the batch is logged; once the write-ahead log has accepted it, the batch
// runs to completion so an acknowledgment always means durable.
func (s *Server) IngestContext(ctx context.Context, ms []Mapping) error {
	return s.db.Ingest(ctx, ms)
}

// IngestVenue adds mappings to a named venue (in-process), creating the
// venue on first use. The batch is partitioned across the venue's shards by
// spatial cell and applied in parallel; it returns the venue's total
// mapping count after the batch. The empty venue name addresses the default
// venue.
func (s *Server) IngestVenue(ctx context.Context, venue string, ms []Mapping) (total int, err error) {
	return s.router.Ingest(ctx, venue, ms)
}

// Locate answers a localization query against a venue (in-process). The
// empty venue name addresses the default venue; a named venue fans the
// query across its shards and merges the candidates bit-identically to an
// unsharded database. Querying a venue that was never ingested returns
// ErrEmptyDatabase — venues never see each other's data.
func (s *Server) Locate(ctx context.Context, venue string, kps []Keypoint, intr Intrinsics) (LocateResult, error) {
	return s.router.Locate(ctx, venue, kps, intr)
}

// TrackConfig tunes the server-side continuous-localization session
// table: capacity and TTL of the session slots, the constant-velocity
// motion model's radius growth, and the residual gates deciding when a
// warm-started solve is accepted versus re-run cold.
type TrackConfig = track.Config

// DefaultTrackConfig returns the session-tracking configuration servers
// start with. Zero fields in a custom config fall back to these values.
func DefaultTrackConfig() TrackConfig { return track.DefaultConfig() }

// ConfigureTracking replaces the server's continuous-localization session
// configuration. Existing sessions are dropped (their next query solves
// cold and re-seeds); in-flight session queries finish against the old
// table. Safe to call on a live server.
func (s *Server) ConfigureTracking(cfg TrackConfig) { s.router.ConfigureTracking(cfg) }

// LocateSession is Locate within a continuous localization session: the
// non-zero sid keys server-side tracking state, letting repeat queries
// from the same moving device warm-start the pose solver from a motion
// prior. Results failing the residual acceptance gate are transparently
// re-solved cold, so a session query is never less accurate than Locate —
// and with sid 0 it is exactly Locate, bit for bit. Sessions are soft
// state (TTL- and capacity-evicted); callers just keep querying.
func (s *Server) LocateSession(ctx context.Context, venue string, sid uint64, kps []Keypoint, intr Intrinsics) (LocateResult, error) {
	return s.router.LocateSession(ctx, venue, sid, kps, intr)
}

// EndSession drops a session's tracking state eagerly (TTL eviction
// reclaims abandoned sessions anyway). No-op for sid 0 or unknown IDs.
func (s *Server) EndSession(venue string, sid uint64) { s.router.EndSession(venue, sid) }

// SessionHandle pins a client's queries to one continuous localization
// session; build one with Client.Session or VenueHandle.Session.
type SessionHandle = server.Session

// VenueOracle returns a venue's uniqueness oracle for in-process keypoint
// filtering. The default venue ("") shares the live oracle object (the
// in-process equivalent of an OracleSync); a named venue's oracle is
// assembled from its shards — a point-in-time copy, re-fetch after further
// ingests.
func (s *Server) VenueOracle(venue string) (*Oracle, error) {
	if venue == "" {
		return s.db.Oracle(), nil
	}
	blob, err := s.router.OracleBlob(venue)
	if err != nil {
		return nil, err
	}
	raw, err := codec.Gunzip(blob)
	if err != nil {
		return nil, err
	}
	return core.Read(bytes.NewReader(raw))
}

// Stats returns the default venue's state report: mapping and byte counts
// plus persistence status. For a named venue's aggregate, use VenueStats.
func (s *Server) Stats() DBStats { return s.db.Stats() }

// VenueStats aggregates a named venue's per-shard state reports. A venue
// that does not exist reports zeros; the empty name reports the default
// venue (same as Stats).
func (s *Server) VenueStats(venue string) DBStats { return s.router.Stats(venue) }

// Compact synchronously folds every durable venue's state into fresh
// snapshots and truncates the write-ahead logs. A no-op for an in-memory
// server.
func (s *Server) Compact() error {
	if !s.durable {
		return nil
	}
	if err := s.db.Compact(); err != nil {
		return err
	}
	return s.router.Compact()
}

// DBStats is the server's state report: mapping and byte counts plus
// persistence status (snapshot coverage, WAL size, last compaction). It is
// what Client.StatsFull returns over the wire.
type DBStats = server.DBStats

// Client is a connection to a VisualPrint cloud service.
type Client = server.Client

// VenueHandle pins a client's requests to one named venue; build one with
// Client.Venue. Handles are cheap values multiplexing over the client's
// single connection.
type VenueHandle = server.Venue

// OracleSync is the oracle-distribution handle — the one API for keeping a
// device's uniqueness oracle current. Sync pulls the cheapest sufficient
// transfer for the version the handle holds (an unchanged ack, a
// compressed cell-delta chain, or a full blob); Watch subscribes to the
// server's epoch-bump pushes and resyncs on each, replacing polling. Build
// one with Client.OracleSync or VenueHandle.OracleSync; Pipeline.OracleSync
// mirrors the surface in-process.
type OracleSync = server.OracleSync

// OracleUpdate is one push-driven oracle refresh delivered by
// OracleSync.Watch. A non-nil Err is the watch's terminal failure; the
// channel closes after delivering it.
type OracleUpdate = server.OracleUpdate

// DialOption configures a client built by Connect.
type DialOption = server.DialOption

// RetryPolicy controls client-side retries: exponential backoff with
// jitter, applied only to errors that are provably safe to retry
// (ErrOverloaded always; a lost connection only for idempotent requests).
// Typed request outcomes — ErrNoConsensus, a deadline — are never retried.
type RetryPolicy = server.RetryPolicy

// DefaultRetryPolicy is a reasonable interactive-use policy: four attempts
// spanning roughly a quarter second of backoff.
func DefaultRetryPolicy() RetryPolicy { return server.DefaultRetryPolicy() }

// WithDialTimeout bounds each TCP dial — the initial connect and any
// automatic reconnect after a lost connection.
func WithDialTimeout(d time.Duration) DialOption { return server.WithDialTimeout(d) }

// WithRetryPolicy enables client-side retries; the default is none.
func WithRetryPolicy(p RetryPolicy) DialOption { return server.WithRetryPolicy(p) }

// WithVenue scopes every request the client makes to the named venue, as if
// each call went through Client.Venue(name).
func WithVenue(name string) DialOption { return server.WithVenue(name) }

// WithClientLogger routes the client's connection-lifecycle messages
// (redials, redirects) to l; nil silences them.
func WithClientLogger(l *Logger) DialOption { return server.WithLogger(l) }

// Logger is the level-tagged logger used across the library; build one
// with NewLogger or install a process-wide default with SetLogLevel.
type Logger = obs.Logger

// NewLogger builds a Logger writing level-tagged lines to w at the given
// minimum level: "debug", "info", "warn" or "error".
func NewLogger(w io.Writer, level string) (*Logger, error) {
	lv, err := obs.ParseLevel(level)
	if err != nil {
		return nil, err
	}
	return obs.New(w, lv), nil
}

// Connect dials a VisualPrint server. It is the one client constructor: the
// full options set (dial timeout, retry policy, venue scoping, logging) is
// expressed as DialOptions, and the returned Client multiplexes requests
// over a single connection, reconnecting transparently when the transport
// drops between requests.
func Connect(addr string, opts ...DialOption) (*Client, error) {
	return server.Dial(addr, opts...)
}

// Typed localization failures, re-exported so callers can errors.Is on a
// Query error — locally or through a networked Client, where the sentinel
// travels as a stable wire code — instead of matching message text.
var (
	ErrEmptyDatabase = server.ErrEmptyDatabase
	ErrTooFewMatches = server.ErrTooFewMatches
	ErrNoConsensus   = server.ErrNoConsensus
)

// Typed request-lifecycle failures. Like the localization sentinels they
// cross the wire as stable one-byte codes, so errors.Is(err, sentinel)
// holds identically whether the call was in-process or through a networked
// Client — the round trip is part of the API contract. The context
// sentinels additionally satisfy errors.Is against their standard-library
// counterparts: errors.Is(err, context.DeadlineExceeded) is true for a
// wire-decoded ErrDeadlineExceeded, and errors.Is(err, context.Canceled)
// for ErrCanceled.
var (
	// ErrOverloaded: the server's dispatch queue was full and the request
	// was shed before any work was done; always safe to retry after
	// backoff (WithRetryPolicy does so automatically).
	ErrOverloaded = server.ErrOverloaded
	// ErrShuttingDown: the server is draining; it finishes in-flight work
	// but accepts nothing new.
	ErrShuttingDown = server.ErrShuttingDown
	// ErrDeadlineExceeded: the request's deadline expired mid-pipeline and
	// the server abandoned the remaining work.
	ErrDeadlineExceeded = server.ErrDeadlineExceeded
	// ErrCanceled: the request was canceled — client-side cancel,
	// connection death, or server drain cutoff — mid-pipeline.
	ErrCanceled = server.ErrCanceled
	// ErrProtocolVersion: the server refused the connection because the
	// client speaks another wire-protocol version; every call on the
	// connection fails with it.
	ErrProtocolVersion = server.ErrProtocolVersion
)

// IsRemoteError reports whether err was diagnosed by the server (as opposed
// to a transport failure).
func IsRemoteError(err error) bool { return server.IsRemote(err) }

// MetricsReport is the server's observability report: uptime, counters,
// gauges, latency histograms with quantile summaries, and the slow-request
// log with per-stage breakdowns. Client.Metrics returns it over the wire;
// Server.Metrics and the debug HTTP endpoint produce the same report.
type MetricsReport = obs.Report

// Observability error sentinels, re-exported for errors.Is.
var (
	// ErrMetricsUnsupported: the dialed server runs with observability
	// disabled.
	ErrMetricsUnsupported = server.ErrMetricsUnsupported
	// ErrConnectionLost: the transport died with requests in flight.
	ErrConnectionLost = server.ErrConnectionLost
)

// Replication surface, re-exported for fleet-aware callers.

// Role is a fleet member's replication role.
type Role = server.Role

// Replication roles: the primary accepts writes; replicas serve reads from
// streamed state; a candidate is a replica mid-full-sync (reads redirect).
const (
	RolePrimary   = server.RolePrimary
	RoleReplica   = server.RoleReplica
	RoleCandidate = server.RoleCandidate
)

// ReplStatus is a fleet member's replication self-report; Client.ReplStatus
// fetches it over the wire, Server.ReplStatus in-process.
type ReplStatus = server.ReplStatus

var (
	// ErrNotPrimary: a write (or a read past the staleness bound) reached a
	// replica. The error carries the primary's address; a Client follows it
	// automatically, so callers normally never see this sentinel.
	ErrNotPrimary = server.ErrNotPrimary
	// ErrReplSyncTimeout: a semi-sync primary could not confirm the ingest
	// on MinSyncReplicas replicas in time. The write is durable locally but
	// under-replicated; retrying after the fleet heals is safe (re-ingest
	// of identical mappings is not deduplicated, though, so prefer checking
	// replica acks via metrics before retrying).
	ErrReplSyncTimeout = server.ErrReplSyncTimeout
)

// WithReadFromReplica routes the client's read RPCs (Query, OracleSync,
// Stats) to a replica, falling back to the primary when the
// replica is unreachable or too stale. Writes always go to the primary.
func WithReadFromReplica(addr string) DialOption { return server.WithReadFromReplica(addr) }

// SetLogLevel replaces the process-wide default logger (used by servers,
// databases and stores whose owner never installed one) with one writing
// level-tagged lines to stderr at the given minimum level: "debug",
// "info", "warn" or "error".
func SetLogLevel(level string) error {
	lv, err := obs.ParseLevel(level)
	if err != nil {
		return err
	}
	obs.SetDefault(obs.New(os.Stderr, lv))
	return nil
}

// QueryUploadBytes returns the wire size of a localization query carrying n
// keypoints — 200 keypoints cost ~29 KB, in line with the paper's "short
// description (~30KB)".
func QueryUploadBytes(n int) int64 { return server.QueryUploadBytes(n) }

// Pipeline is the single-process convenience API: world, wardriving, cloud
// database and client-side filtering in one object. It is what the examples
// and benchmarks use when network transport is not the subject under test.
type Pipeline struct {
	World  *World
	Server *Server
	Oracle *Oracle

	// Venue scopes the pipeline's server interactions to one named venue;
	// empty (the default) uses the default venue. Set it before Wardrive.
	Venue string
	// SelectCount is how many most-unique keypoints a query uploads
	// (the paper evaluates 200 and 500).
	SelectCount int
	// Sift configures client-side extraction.
	Sift SiftConfig
	// BlurThreshold rejects frames whose BlurScore falls below it before
	// any extraction work (0 disables the check). The client app performs
	// this quick check to skip motion-blurred frames.
	BlurThreshold float64

	// sessionID, when non-zero, threads every Localize call through the
	// server's continuous-localization session keyed by it (StartSession /
	// EndSession manage it).
	sessionID uint64
}

// StartSession begins a continuous localization session: subsequent
// Localize calls carry a shared session ID, so the server warm-starts
// each pose solve from the device's tracked trajectory. Starting a new
// session while one is active ends the old one first.
func (p *Pipeline) StartSession() {
	if p.sessionID != 0 {
		p.EndSession()
	}
	for p.sessionID == 0 {
		p.sessionID = rand.Uint64()
	}
}

// EndSession ends the active session (if any): the server's tracking
// state is dropped and subsequent Localize calls solve cold.
func (p *Pipeline) EndSession() {
	if p.sessionID != 0 {
		p.Server.EndSession(p.Venue, p.sessionID)
		p.sessionID = 0
	}
}

// SessionID returns the active session's ID, or 0 when none is active.
func (p *Pipeline) SessionID() uint64 { return p.sessionID }

// ErrFrameBlurred is returned by LocalizeFrame for frames rejected by the
// blur gate.
var ErrFrameBlurred = errFrameBlurred{}

type errFrameBlurred struct{}

func (errFrameBlurred) Error() string { return "visualprint: frame rejected as blurred" }

// NewPipeline builds a pipeline over a world with a fresh server.
func NewPipeline(w *World, cfg ServerConfig, opts ...ServerOption) (*Pipeline, error) {
	srv, err := NewServer(cfg, opts...)
	if err != nil {
		return nil, err
	}
	sc := sift.DefaultConfig()
	sc.ContrastThreshold = 0.02
	return &Pipeline{
		World:       w,
		Server:      srv,
		SelectCount: 200,
		Sift:        sc,
	}, nil
}

// Wardrive walks the world, optionally corrects drift with ICP, ingests
// the mappings into the pipeline's venue, and installs the
// (server-identical) oracle for client-side filtering. It returns the
// number of mappings ingested.
func (p *Pipeline) Wardrive(cfg WardriveConfig, correctDrift bool) (int, error) {
	snaps, err := Wardrive(p.World, cfg)
	if err != nil {
		return 0, err
	}
	if correctDrift {
		if _, _, err := CorrectDrift(snaps); err != nil {
			return 0, err
		}
	}
	ms := MappingsFrom(snaps)
	if _, err := p.Server.IngestVenue(context.Background(), p.Venue, ms); err != nil {
		return 0, err
	}
	// In-process deployments get the oracle directly (shared for the
	// default venue, assembled from the shards for a named one); a
	// networked client would OracleSync().Sync instead.
	o, err := p.Server.VenueOracle(p.Venue)
	if err != nil {
		return 0, err
	}
	p.Oracle = o
	return len(ms), nil
}

// PipelineOracleSync mirrors the networked OracleSync handle for
// single-process deployments: the same Sync / Watch / Version surface,
// served by the embedded engine through the identical version-and-delta
// logic a remote client exercises — TransferBytes reports what the syncs
// would have cost on the wire. Build one with Pipeline.OracleSync.
type PipelineOracleSync struct {
	p *Pipeline

	mu        sync.Mutex
	oracle    *Oracle
	epoch     uint64
	inserts   uint64
	versioned bool
	bytes     int64
}

// OracleSync returns the in-process oracle-distribution handle for the
// pipeline's venue. Syncing it also installs the result as the pipeline's
// filtering oracle (p.Oracle), so push-driven deployments can keep a
// wardriving pipeline's client-side filter current with Watch.
func (p *Pipeline) OracleSync() *PipelineOracleSync { return &PipelineOracleSync{p: p} }

// Version returns the held oracle's version identity; ok is false before
// the first successful Sync.
func (h *PipelineOracleSync) Version() (epoch, inserts uint64, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.epoch, h.inserts, h.versioned
}

// TransferBytes returns the cumulative bytes the handle's syncs would have
// transferred over the wire (delta chains and full blobs; unchanged acks
// cost the fixed version stamp).
func (h *PipelineOracleSync) TransferBytes() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bytes
}

// Sync brings the handle (and p.Oracle) up to the engine's latest epoch,
// applying a delta chain when the held version is inside the server's
// retained window and a full rebuild otherwise.
func (h *PipelineOracleSync) Sync(ctx context.Context) (*Oracle, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.syncLocked()
}

func (h *PipelineOracleSync) syncLocked() (*Oracle, error) {
	haveEpoch, haveInserts := ^uint64(0), ^uint64(0)
	if h.oracle != nil && h.versioned {
		haveEpoch, haveInserts = h.epoch, h.inserts
	}
	res, err := h.p.Server.router.OracleSyncSince(h.p.Venue, haveEpoch, haveInserts)
	if err != nil {
		return nil, err
	}
	switch {
	case res.Unchanged:
		h.bytes += 16
		return h.oracle, nil
	case res.Delta != nil:
		h.bytes += int64(len(res.Delta))
		recs, err := odelta.DecodeChain(res.Delta)
		if err != nil {
			return nil, err
		}
		o, err := odelta.ApplyChain(h.oracle, recs)
		if err != nil {
			return nil, err
		}
		h.install(o, res.Epoch, res.Inserts)
		return o, nil
	default:
		h.bytes += int64(len(res.Blob))
		raw, err := codec.Gunzip(res.Blob)
		if err != nil {
			return nil, err
		}
		o, err := core.Read(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		h.install(o, res.Epoch, res.Inserts)
		return o, nil
	}
}

func (h *PipelineOracleSync) install(o *Oracle, epoch, inserts uint64) {
	h.oracle, h.epoch, h.inserts, h.versioned = o, epoch, inserts, true
	h.p.Oracle = o
}

// Watch mirrors OracleSync.Watch in-process: it delivers a synced oracle
// whenever the engine's epoch advances past the held version, coalescing
// bursts to the latest state. The channel closes when ctx is canceled, or
// after delivering a terminal failure in OracleUpdate.Err.
func (h *PipelineOracleSync) Watch(ctx context.Context) (<-chan OracleUpdate, error) {
	// Fail venue problems synchronously, like the networked handle does.
	if _, _, _, err := h.p.Server.router.VenueEpochSignal(h.p.Venue, ctx.Done()); err != nil {
		return nil, err
	}
	out := make(chan OracleUpdate, 1)
	go func() {
		defer close(out)
		for {
			epoch, inserts, ch, err := h.p.Server.router.VenueEpochSignal(h.p.Venue, ctx.Done())
			if err == nil {
				he, hi, ok := h.Version()
				if !ok || he != epoch || hi != inserts {
					var o *Oracle
					if o, err = h.Sync(ctx); err == nil {
						// Snapshot: the next delta sync patches the held
						// oracle in place (see the networked handle).
						o, err = o.Clone()
					}
					if err == nil {
						e2, i2, _ := h.Version()
						select {
						case out <- OracleUpdate{Oracle: o, Epoch: e2, Inserts: i2}:
						case <-ctx.Done():
							return
						}
					}
				}
			}
			if err != nil {
				if ctx.Err() == nil {
					select {
					case out <- OracleUpdate{Err: err}:
					case <-ctx.Done():
					}
				}
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-ch:
			}
		}
	}()
	return out, nil
}

// QueryStats reports what a localization query consumed.
type QueryStats struct {
	ExtractedKeypoints int
	UploadedKeypoints  int
	UploadBytes        int64
}

// Localize captures a frame from cam, extracts keypoints, filters them to
// the SelectCount most unique via the oracle, and runs the server's
// localization pipeline. It is the end-to-end client flow of the paper's
// Figure 7 without the network in between.
func (p *Pipeline) Localize(cam Camera) (LocateResult, QueryStats, error) {
	return p.LocalizeContext(context.Background(), cam)
}

// LocalizeContext is Localize under a context: cancellation or an expired
// deadline stops the localization pipeline at its next stage boundary
// (LSH retrieval, clustering, each pose-solver generation) and returns
// ErrCanceled or ErrDeadlineExceeded.
func (p *Pipeline) LocalizeContext(ctx context.Context, cam Camera) (LocateResult, QueryStats, error) {
	fr, err := Render(p.World, cam)
	if err != nil {
		return LocateResult{}, QueryStats{}, err
	}
	return p.LocalizeFrameContext(ctx, fr)
}

// LocalizeFrame runs the client flow on an already-rendered frame. Frames
// failing the blur gate return ErrFrameBlurred without any extraction work.
func (p *Pipeline) LocalizeFrame(fr *Frame) (LocateResult, QueryStats, error) {
	return p.LocalizeFrameContext(context.Background(), fr)
}

// LocalizeFrameContext is LocalizeFrame under a context (see
// LocalizeContext for the cancellation semantics).
func (p *Pipeline) LocalizeFrameContext(ctx context.Context, fr *Frame) (LocateResult, QueryStats, error) {
	if p.BlurThreshold > 0 && BlurScore(fr.Image) < p.BlurThreshold {
		return LocateResult{}, QueryStats{}, ErrFrameBlurred
	}
	kps := ExtractKeypoints(fr.Image, p.Sift)
	sel := kps
	if p.Oracle != nil && p.SelectCount > 0 && len(kps) > p.SelectCount {
		var err error
		sel, err = p.Oracle.SelectUnique(kps, p.SelectCount)
		if err != nil {
			return LocateResult{}, QueryStats{}, err
		}
	}
	stats := QueryStats{
		ExtractedKeypoints: len(kps),
		UploadedKeypoints:  len(sel),
		UploadBytes:        QueryUploadBytes(len(sel)),
	}
	res, err := p.Server.LocateSession(ctx, p.Venue, p.sessionID, sel, IntrinsicsOf(fr.Cam))
	if err != nil {
		return LocateResult{}, stats, err
	}
	return res, stats, nil
}
