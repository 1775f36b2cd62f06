package visualprint

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"time"

	"visualprint/internal/cluster"
	"visualprint/internal/lsh"
	"visualprint/internal/obs"
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
// venues: the default venue (the empty name) always exists as a one-shard
// venue, and named venues — created on first ingest — each own an isolated
// set of spatial shard engines with their own indexes, oracles and durable
// directories.
type Server struct {
	router  *server.Router
	srv     *server.Server
	debug   *http.Server
	netOpts []server.Option

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
	if so.repl != nil && so.repl.Advertise == "" {
		return nil, errors.New("visualprint: ReplicationOptions requires Advertise")
	}
	router, err := server.NewRouter(cfg.engine())
	if err != nil {
		return nil, err
	}
	s := &Server{router: router, netOpts: so.net}
	if so.repl != nil {
		s.rs = server.NewReplState(router.Default(), server.ReplConfig{
			Self:            so.repl.Advertise,
			Primary:         so.repl.Primary,
			MinSyncReplicas: so.repl.MinSyncReplicas,
			SyncTimeout:     so.repl.SyncTimeout,
			MaxStaleness:    so.repl.MaxStaleness,
		})
	}
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
// The default venue's shard lives at the directory root; named venues live
// under dir/venues/<name>/shard-NNN. Must be called before any ingest; an
// empty dir string is a no-op (the server stays in-memory).
func (s *Server) OpenData(dir string) error {
	if dir == "" {
		return nil
	}
	return s.router.OpenVenues(dir)
}

// Listen starts serving on addr ("host:port"; ":0" picks a free port) and
// returns the bound address. On a replicated server this also starts the
// replication loop: a replica begins tailing (or full-syncing from) its
// primary as soon as the listener is up.
func (s *Server) Listen(addr string) (net.Addr, error) {
	if s.rs != nil && !s.Stats("").Persistent {
		return nil, errors.New("visualprint: a replicated server requires a data directory (OpenData before Listen)")
	}
	opts := s.netOpts
	if s.rs != nil {
		opts = append(slices.Clip(opts), server.WithReplState(s.rs))
	}
	srv, err := server.ListenAndServe(addr, s.router, opts...)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	if s.rs != nil {
		node, err := repl.StartNode(repl.NodeConfig{DB: s.router.Default(), State: s.rs})
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
// Enables observability on the engine if nothing has yet.
func (s *Server) ServeDebug(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.debug = &http.Server{
		Handler: obs.DebugMux(s.router.EnableObs()),
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
// Enables observability on the engine if nothing has yet.
func (s *Server) Metrics() MetricsReport {
	return s.router.EnableObs().Report()
}

// Close stops the network listener (if any), the debug listener (if any)
// and, for a durable server, flushes and closes every venue's data.
// In-flight requests are cut off; use Shutdown to drain them gracefully.
func (s *Server) Close() error {
	return s.teardown((*server.Server).Close)
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
	return s.teardown(func(srv *server.Server) error { return srv.Shutdown(ctx) })
}

// teardown is the body of Close and Shutdown, which differ only in how the
// network front end stops. The first error wins; every step runs regardless.
func (s *Server) teardown(stop func(*server.Server) error) error {
	s.stopRepl()
	var err error
	if s.srv != nil {
		err = stop(s.srv)
	}
	if s.debug != nil {
		if dErr := s.debug.Close(); err == nil {
			err = dErr
		}
	}
	if rErr := s.router.Close(); err == nil {
		err = rErr
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

// Ingest adds wardriven mappings to a venue (in-process), creating a named
// venue on first use; the empty name addresses the default venue. The batch
// is partitioned across the venue's shards by spatial cell and applied in
// parallel; it returns the venue's total mapping count after the batch.
// Cancellation is honored before the batch is logged; once the write-ahead
// log has accepted it, the batch runs to completion so an acknowledgment
// always means durable.
func (s *Server) Ingest(ctx context.Context, venue string, ms []Mapping) (total int, err error) {
	return s.router.Ingest(ctx, venue, ms)
}

// Locate answers a localization query against a venue (in-process). The
// empty venue name addresses the default venue; a multi-shard venue fans the
// query across its shards and merges the candidates bit-identically to a
// one-shard venue. Querying a venue that was never ingested returns
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

// VenueOracle returns a point-in-time copy of a venue's uniqueness oracle
// for in-process keypoint filtering (the in-process equivalent of an
// OracleSync; re-fetch after further ingests). The empty name addresses the
// default venue; a venue that does not exist yet answers the empty oracle.
func (s *Server) VenueOracle(venue string) (*Oracle, error) {
	return s.router.Oracle(venue)
}

// Stats returns a venue's state report — mapping and byte counts plus
// persistence status — aggregated over its shards. The empty name addresses
// the default venue; a venue that does not exist reports zeros.
func (s *Server) Stats(venue string) DBStats { return s.router.Stats(venue) }

// Compact synchronously folds every durable venue's state into fresh
// snapshots and truncates the write-ahead logs. A no-op for an in-memory
// server.
func (s *Server) Compact() error { return s.router.Compact() }

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
// one with Client.OracleSync or VenueHandle.OracleSync; in-process users
// call Server.VenueOracle instead.
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
	if _, err := p.Server.Ingest(context.Background(), p.Venue, ms); err != nil {
		return 0, err
	}
	// In-process deployments get the oracle directly (a copy assembled from
	// the venue's shards); a networked client would OracleSync().Sync
	// instead.
	o, err := p.Server.VenueOracle(p.Venue)
	if err != nil {
		return 0, err
	}
	p.Oracle = o
	return len(ms), nil
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
