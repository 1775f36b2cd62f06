package server

import (
	"time"

	"visualprint/internal/obs"
	"visualprint/internal/store"
)

// Observability wiring. The engines and the server are instrumented from
// construction: NewRouter builds the registry and the engine instrument set
// and hands it to every shard as the shard is built, a standalone Database
// gets a registry of its own, and Serve builds the wire instruments on the
// router's registry. Every hot path records through internal/obs handles
// that are never swapped, so nothing checks whether instruments exist.

// slowRequestThreshold is the tracer's cutoff for the slow-request ring:
// a locate, ingest or compaction slower than this is captured with its
// per-stage breakdown. 100 ms is ~7x the simulated-scale Locate median —
// rare enough to keep the ring meaningful, common enough to catch real
// stalls (compaction pauses, lock convoys).
const slowRequestThreshold = 100 * time.Millisecond

// dbMetrics is the engine instrument set. NewRouter creates one and hands it
// to every shard of every venue, so a Locate or an Ingest records
// into the same instruments whichever venue and topology served it.
type dbMetrics struct {
	reg   *obs.Registry
	trace *obs.Tracer

	locateNs     *obs.Histogram
	ingestNs     *obs.Histogram
	locates      *obs.Counter
	locateErrors *obs.Counter
	ingests      *obs.Counter
	ingestErrors *obs.Counter

	// Gauges describe one engine, so only the default venue's shard carries
	// them; every other shard gets the withoutGauges copy.
	mappings *obs.Gauge
	recovery *obs.Gauge
	store    store.Metrics
}

func newDBMetrics(r *obs.Registry) *dbMetrics {
	return &dbMetrics{
		reg:          r,
		trace:        obs.NewTracer(r, slowRequestThreshold),
		locateNs:     r.Histogram("locate_ns"),
		ingestNs:     r.Histogram("ingest_ns"),
		locates:      r.Counter("locates"),
		locateErrors: r.Counter("locate_errors"),
		ingests:      r.Counter("ingests"),
		ingestErrors: r.Counter("ingest_errors"),
		mappings:     r.Gauge("mappings"),
		recovery:     r.Gauge("recovery_ns"),
		store: store.Metrics{
			FsyncNs:       r.Histogram("wal_fsync_ns"),
			BatchRecords:  r.Histogram("wal_batch_records"),
			SnapshotNs:    r.Histogram("snapshot_write_ns"),
			SnapshotBytes: r.Gauge("snapshot_bytes"),
			Snapshots:     r.Counter("snapshots_written"),
			WALBytes:      r.Gauge("wal_bytes"),
		},
	}
}

// withoutGauges returns the set a named venue's shards record into: the
// shared counters, histograms and tracer, no per-engine gauges.
func (m *dbMetrics) withoutGauges() *dbMetrics {
	c := *m
	c.mappings, c.recovery = nil, nil
	c.store.SnapshotBytes, c.store.WALBytes = nil, nil
	return &c
}

// endLocate books one venue-level Locate: its trace, latency and outcome.
func (m *dbMetrics) endLocate(tr *obs.Trace, err error) {
	m.locateNs.Observe(m.trace.End(tr))
	m.locates.Inc()
	if err != nil {
		m.locateErrors.Inc()
	}
}

// endIngest books one venue-level Ingest.
func (m *dbMetrics) endIngest(start time.Time, err error) {
	m.ingests.Inc()
	m.ingestNs.ObserveSince(start)
	if err != nil {
		m.ingestErrors.Inc()
	}
}

// srvMetrics is the wire-level instrument set: per-message-type request
// counts and latencies, payload bytes in each direction, the in-flight
// handler gauge, and error counts by wire code.
type srvMetrics struct {
	inflight *obs.Gauge
	bytesIn  *obs.Counter
	bytesOut *obs.Counter

	// Indexed by request message type (< len); unknown or out-of-range
	// types fall through to reqUnknown with no latency histogram.
	reqCount   [37]*obs.Counter
	reqNs      [37]*obs.Histogram
	reqUnknown *obs.Counter

	// Indexed by wire error code; codes past the known range count as
	// generic.
	errCodes [len(errCodeNames)]*obs.Counter

	// Request-lifecycle events: requests refused for a malformed header
	// (before they have a type to be counted under), requests shed by
	// admission control, requests aborted by a client cancel frame, and the
	// current depth of the dispatch queue.
	headerRejected *obs.Counter
	shed           *obs.Counter
	canceled       *obs.Counter
	queueDepth     *obs.Gauge

	// Oracle distribution: how each versioned sync was answered and the
	// payload bytes it cost. bytes-per-client-per-update is
	// oracle_sync_bytes / (oracle_syncs_delta + oracle_syncs_full).
	syncUnchanged *obs.Counter
	syncDelta     *obs.Counter
	syncFull      *obs.Counter
	syncBytes     *obs.Counter
}

// requestTypeNames maps request message types to metric name suffixes.
// Response types never reach dispatch, so they are absent.
var requestTypeNames = map[byte]string{
	msgIngest:     "ingest",
	msgQuery:      "query",
	msgStats:      "stats",
	msgGetMetrics: "metrics",

	msgReplState:    "repl_state",
	msgReplSnapshot: "repl_snapshot",
	msgReplFetch:    "repl_fetch",
	msgReplFollow:   "repl_follow",
	msgReplPromote:  "repl_promote",

	msgOracleSync: "oracle_sync",
}

// errCodeNames maps wire error codes to metric name suffixes. Keyed by
// code, the table is as long as the highest code named; a new code must be
// named here (TestErrCodeNamesCoverSentinels), or record books it as
// generic.
var errCodeNames = [...]string{
	errCodeGeneric:          "generic",
	errCodeEmptyDatabase:    "empty_database",
	errCodeTooFewMatches:    "too_few_matches",
	errCodeNoConsensus:      "no_consensus",
	errCodeOverloaded:       "overloaded",
	errCodeDeadlineExceeded: "deadline_exceeded",
	errCodeShuttingDown:     "shutting_down",
	errCodeCanceled:         "canceled",
	errCodeNotPrimary:       "not_primary",
	errCodeProtocolVersion:  "protocol_version",
	errCodeVenueNotRepl:     "venue_not_replicated",
}

func newSrvMetrics(r *obs.Registry) *srvMetrics {
	m := &srvMetrics{
		inflight: r.Gauge("inflight"),
		bytesIn:  r.Counter("bytes_in"),
		bytesOut: r.Counter("bytes_out"),

		reqUnknown: r.Counter("requests_unknown"),

		headerRejected: r.Counter("requests_header_rejected"),
		shed:           r.Counter("requests_shed"),
		canceled:       r.Counter("requests_canceled"),
		queueDepth:     r.Gauge("queue_depth"),

		syncUnchanged: r.Counter("oracle_syncs_unchanged"),
		syncDelta:     r.Counter("oracle_syncs_delta"),
		syncFull:      r.Counter("oracle_syncs_full"),
		syncBytes:     r.Counter("oracle_sync_bytes"),
	}
	for typ, name := range requestTypeNames {
		m.reqCount[typ] = r.Counter("requests_" + name)
		m.reqNs[typ] = r.Histogram("request_" + name + "_ns")
	}
	for code, name := range errCodeNames {
		m.errCodes[code] = r.Counter("errors_" + name)
	}
	return m
}

// record books one completed request: counts, latency, response bytes and
// — for msgError responses — the wire error code (payload byte 0, the
// same byte decodeErrorPayload reads on the client).
func (m *srvMetrics) record(typ byte, start time.Time, rt byte, resp []byte) {
	if int(typ) < len(m.reqCount) && m.reqCount[typ] != nil {
		m.reqCount[typ].Inc()
		m.reqNs[typ].ObserveSince(start)
	} else {
		m.reqUnknown.Inc()
	}
	m.bytesOut.Add(uint64(len(resp)))
	if rt == msgError {
		code := byte(0)
		if len(resp) > 0 {
			code = resp[0]
		}
		if int(code) >= len(m.errCodes) {
			code = errCodeGeneric
		}
		m.errCodes[code].Inc()
	}
}
