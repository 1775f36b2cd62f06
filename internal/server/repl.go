package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"visualprint/internal/obs"
	"visualprint/internal/store"
)

// Replication control block. A fleet is one primary streaming its WAL to N
// replicas; every member carries a ReplState that pins down what the node
// is right now (role, epoch, who the primary is) and what it has (the
// applied offset — the length of the WAL prefix in its database). The
// protocol is pull-based: replicas long-poll the primary with msgReplFetch,
// and the fromSeq they ask for doubles as their acknowledgement — asking
// for record k tells the primary records [0,k) are durably applied over
// there. That one message is the whole offset/ack protocol; there is no
// separate ack channel to keep consistent.
//
// The ReplState lives in internal/server (not internal/repl) because the
// wire handlers, the ingest hook, and the read/write gates all need it and
// the repl package imports this one; the fleet runners (repl.Node,
// repl.Sentinel) drive it from outside through exported methods.

// Role is a fleet member's current disposition.
type Role uint8

const (
	// RolePrimary accepts ingests, streams its WAL to replicas, and is the
	// redirect target every other member advertises.
	RolePrimary Role = iota
	// RoleReplica applies the primary's WAL and serves reads while within
	// its staleness bound; ingests are rejected with a redirect.
	RoleReplica
	// RoleCandidate is a replica mid-full-sync: its state is being replaced
	// wholesale, so even reads redirect until the transfer lands.
	RoleCandidate
)

func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleReplica:
		return "replica"
	case RoleCandidate:
		return "candidate"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// Replication protocol limits and defaults.
const (
	// replBatchMaxBytes caps one msgReplBatch response so a fresh replica
	// tailing a deep backlog doesn't build gigabyte frames.
	replBatchMaxBytes = 4 << 20
	// replFetchMaxWait caps the server-side long-poll; a replica asking for
	// more still gets its response, just sooner. Bounded so a fetch never
	// pins an admission slot for long.
	replFetchMaxWait = time.Second
	// DefaultSyncTimeout bounds how long a primary ingest waits for the
	// configured minimum of replica acknowledgements before giving up.
	DefaultSyncTimeout = 5 * time.Second
	// DefaultMaxStaleness is how far behind the last successful primary
	// contact a replica may be while still serving reads itself.
	DefaultMaxStaleness = 3 * time.Second
)

// ErrReplSyncTimeout: a primary ingest was durably logged and applied
// locally, but the configured minimum of replicas did not acknowledge it in
// time. Deliberately NOT retryable — the batch may replicate late, and a
// blind resend would duplicate it; the caller must reconcile (or simply
// re-read) before retrying.
var ErrReplSyncTimeout = errors.New("server: replication sync timeout (ingest durable locally, not yet acknowledged by replicas)")

// ReplConfig seeds a ReplState.
type ReplConfig struct {
	// Self is the address this node advertises to the fleet (redirects,
	// fetch identity). Required.
	Self string
	// Primary, when non-empty, starts the node as a replica of that
	// address; empty starts it as the primary.
	Primary string
	// MinSyncReplicas > 0 makes primary ingests semi-synchronous: the ack
	// is withheld until that many replicas have durably applied the batch.
	// 0 acknowledges on local durability alone.
	MinSyncReplicas int
	// SyncTimeout bounds the semi-sync wait (default DefaultSyncTimeout).
	SyncTimeout time.Duration
	// MaxStaleness bounds replica-served reads (default
	// DefaultMaxStaleness): a replica that hasn't heard from the primary
	// for longer redirects queries instead of serving them.
	MaxStaleness time.Duration
}

// ReplState is one fleet member's replication state machine. All methods
// are safe for concurrent use.
type ReplState struct {
	db *Database
	lg *obs.Logger

	minSync      int
	syncTimeout  time.Duration
	maxStaleness time.Duration
	self         string

	mu          sync.Mutex
	role        Role
	epoch       uint64
	primaryAddr string
	// lastContact is the replica's last successful exchange with the
	// primary (set by Touch from the fetch loop); the staleness bound
	// measures from here.
	lastContact time.Time
	// syncNeeded is set when the node is demoted from primary: its log may
	// have unacknowledged records the new primary's history lacks
	// (divergence), so the tail loop must full-sync instead of resuming at
	// its local offset. Cleared by EndSync.
	syncNeeded bool
	// acks maps replica id -> applied offset, learned from fetch requests.
	acks map[string]uint64
	// readers caches one WAL reader per replica so a steady tail doesn't
	// rescan its segment every poll. Checkout pattern: a fetch removes the
	// entry while using it, so a duplicate fetch simply opens a fresh one.
	readers map[string]*store.WALReader
	// change is closed and renewed whenever role/epoch/primary move, so
	// in-process watchers (repl.Node) react without polling.
	change chan struct{}
	// appended is closed and renewed when the local store gains durable
	// records — the long-poll wakeup for fetches at the head.
	appended chan struct{}
	// acked is closed and renewed when acks advance — the semi-sync wakeup.
	acked chan struct{}

	// Metrics (nil until enableObs; all no-op before then).
	bytesStreamed *obs.Counter
	failovers     *obs.Counter
	lagRecords    *obs.Gauge
	lagNs         *obs.Gauge
	ackGauges     map[string]*obs.Gauge
	reg           *obs.Registry
}

// NewReplState builds the control block and binds it to db (whose ingest
// path then advances and gates on it). The database must be durable by the
// time the node serves traffic; that is validated by the fleet runner, not
// here.
func NewReplState(db *Database, cfg ReplConfig) *ReplState {
	rs := &ReplState{
		db:           db,
		lg:           obs.Default(),
		minSync:      cfg.MinSyncReplicas,
		syncTimeout:  cfg.SyncTimeout,
		maxStaleness: cfg.MaxStaleness,
		self:         cfg.Self,
		role:         RolePrimary,
		primaryAddr:  cfg.Self,
		acks:         map[string]uint64{},
		readers:      map[string]*store.WALReader{},
		change:       make(chan struct{}),
		appended:     make(chan struct{}),
		acked:        make(chan struct{}),
		lastContact:  time.Now(),
	}
	if rs.syncTimeout <= 0 {
		rs.syncTimeout = DefaultSyncTimeout
	}
	if rs.maxStaleness <= 0 {
		rs.maxStaleness = DefaultMaxStaleness
	}
	if cfg.Primary != "" {
		rs.role = RoleReplica
		rs.primaryAddr = cfg.Primary
	}
	db.SetRepl(rs)
	return rs
}

// SetLogger routes the control block's warnings through l (nil silences).
func (rs *ReplState) SetLogger(l *obs.Logger) {
	if l == nil {
		l = obs.Discard
	}
	rs.mu.Lock()
	rs.lg = l
	rs.mu.Unlock()
}

// enableObs wires the replication instruments onto r. Called by Serve.
func (rs *ReplState) enableObs(r *obs.Registry) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.reg != nil {
		return
	}
	rs.reg = r
	rs.bytesStreamed = r.Counter("repl_bytes_streamed")
	rs.failovers = r.Counter("failovers_total")
	rs.lagRecords = r.Gauge("repl_lag_records")
	rs.lagNs = r.Gauge("repl_lag_ns")
	rs.ackGauges = map[string]*obs.Gauge{}
}

// Role returns the node's current role.
func (rs *ReplState) Role() Role {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.role
}

// Epoch returns the node's current configuration epoch.
func (rs *ReplState) Epoch() uint64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.epoch
}

// PrimaryAddr returns the primary's address as this node knows it (its own
// advertised address when it is the primary; possibly empty mid-failover).
func (rs *ReplState) PrimaryAddr() string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.primaryAddr
}

// Self returns the node's advertised address.
func (rs *ReplState) Self() string { return rs.self }

// Changed returns a channel closed on the next role/epoch/primary change.
func (rs *ReplState) Changed() <-chan struct{} {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.change
}

// Applied returns the node's applied offset: the number of WAL records in
// its database, the currency of the whole ack protocol.
func (rs *ReplState) Applied() uint64 { return rs.db.StoreSeq() }

// Staleness is how long ago the node last heard from the primary; zero on
// the primary itself.
func (rs *ReplState) Staleness() time.Duration {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.role == RolePrimary {
		return 0
	}
	return time.Since(rs.lastContact)
}

// Touch records a successful exchange with the primary (called by the
// replica's fetch loop, including for empty batches — liveness, not data,
// is what the staleness bound measures).
func (rs *ReplState) Touch() {
	rs.mu.Lock()
	rs.lastContact = time.Now()
	if rs.lagNs != nil {
		rs.lagNs.Set(0)
	}
	rs.mu.Unlock()
}

// BeginSync marks the node a candidate for the duration of a full-sync
// (reads redirect; the state is being replaced wholesale). EndSync returns
// it to replica duty.
func (rs *ReplState) BeginSync() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	// Pending until EndSync: if the transfer is interrupted (primary killed
	// mid-snapshot, install failure), the tail loop must restart the
	// full-sync rather than resume tailing a half-replaced database.
	rs.syncNeeded = true
	if rs.role == RoleReplica {
		rs.setRoleLocked(RoleCandidate, rs.epoch, rs.primaryAddr)
	}
}

// EndSync completes a full-sync; the node serves reads again.
func (rs *ReplState) EndSync() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.syncNeeded = false
	if rs.role == RoleCandidate {
		rs.lastContact = time.Now()
		rs.setRoleLocked(RoleReplica, rs.epoch, rs.primaryAddr)
	}
}

// FullSyncPending reports whether the node's log may have diverged from
// the fleet's history (it was demoted from primary) and must therefore
// restart from a snapshot transfer rather than tail from its local offset.
func (rs *ReplState) FullSyncPending() bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.syncNeeded
}

// FollowHint redirects the node's tail loop to a new primary address
// without an epoch change — the self-healing path when a fetch bounces
// with a redirect. Epoch-changing reconfiguration goes through Follow.
func (rs *ReplState) FollowHint(addr string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if addr == "" || addr == rs.primaryAddr || rs.role == RolePrimary {
		return
	}
	rs.setRoleLocked(rs.role, rs.epoch, addr)
}

// Follow demotes/reconfigures the node: at epoch e, the primary is addr.
// Rejected when e is older than the node's current epoch (a stale
// sentinel). Promotion of self goes through Promote.
func (rs *ReplState) Follow(epoch uint64, addr string) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if epoch < rs.epoch {
		return fmt.Errorf("server: stale replication epoch %d (current %d)", epoch, rs.epoch)
	}
	wasPrimary := rs.role == RolePrimary
	rs.lastContact = time.Now()
	rs.setRoleLocked(RoleReplica, epoch, addr)
	if wasPrimary {
		rs.closeReadersLocked()
		rs.acks = map[string]uint64{}
		// An ex-primary's log tail may hold records the new history lacks;
		// resuming the tail at the local offset would interleave two
		// histories. Force a snapshot restart.
		rs.syncNeeded = true
		rs.lg.Warnf("repl: demoted to replica of %s at epoch %d", addr, epoch)
	}
	return nil
}

// Promote makes the node the primary at epoch e. Rejected when e is older
// than the node's current epoch.
func (rs *ReplState) Promote(epoch uint64) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if epoch < rs.epoch {
		return fmt.Errorf("server: stale replication epoch %d (current %d)", epoch, rs.epoch)
	}
	promoted := rs.role != RolePrimary
	rs.setRoleLocked(RolePrimary, epoch, rs.self)
	if promoted {
		if rs.failovers != nil {
			rs.failovers.Inc()
		}
		rs.lg.Warnf("repl: promoted to primary at epoch %d (applied %d)", epoch, rs.db.StoreSeq())
	}
	return nil
}

// setRoleLocked applies a role/epoch/primary transition and wakes watchers.
// Callers hold rs.mu.
func (rs *ReplState) setRoleLocked(role Role, epoch uint64, primary string) {
	if role == rs.role && epoch == rs.epoch && primary == rs.primaryAddr {
		return
	}
	rs.role, rs.epoch, rs.primaryAddr = role, epoch, primary
	close(rs.change)
	rs.change = make(chan struct{})
}

// closeReadersLocked drops every cached replica reader. Callers hold rs.mu.
func (rs *ReplState) closeReadersLocked() {
	for id, r := range rs.readers {
		r.Close()
		delete(rs.readers, id)
	}
}

// Close releases the control block's file handles (cached WAL readers).
func (rs *ReplState) Close() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.closeReadersLocked()
}

// noteDurable wakes fetch long-polls after the local store gained durable
// records. Called by the ingest path after its commit fsync completes.
func (rs *ReplState) noteDurable() {
	rs.mu.Lock()
	close(rs.appended)
	rs.appended = make(chan struct{})
	rs.mu.Unlock()
}

// recordAck books a replica's applied offset (its fetch fromSeq) and wakes
// semi-sync waiters. Callers hold rs.mu.
func (rs *ReplState) recordAckLocked(id string, off uint64) {
	if cur, ok := rs.acks[id]; ok && cur >= off {
		return
	}
	rs.acks[id] = off
	close(rs.acked)
	rs.acked = make(chan struct{})
	if rs.reg != nil {
		g, ok := rs.ackGauges[id]
		if !ok {
			g = rs.reg.Gauge("repl_ack_offset_" + metricSafe(id))
			rs.ackGauges[id] = g
		}
		g.Set(int64(off))
	}
}

// metricSafe rewrites an address into a metric-name suffix.
func metricSafe(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, id)
}

// syncedLocked counts replicas whose acknowledged offset covers target.
// Callers hold rs.mu.
func (rs *ReplState) syncedLocked(target uint64) int {
	n := 0
	for _, off := range rs.acks {
		if off >= target {
			n++
		}
	}
	return n
}

// waitSynced blocks a primary ingest until MinSyncReplicas replicas have
// acknowledged offset target, or the sync timeout passes (returning the
// non-retryable ErrReplSyncTimeout). No-op on replicas and on fleets
// configured fully asynchronous.
func (rs *ReplState) waitSynced(target uint64) error {
	rs.mu.Lock()
	if rs.minSync <= 0 || rs.role != RolePrimary {
		rs.mu.Unlock()
		return nil
	}
	deadline := time.Now().Add(rs.syncTimeout)
	for rs.syncedLocked(target) < rs.minSync {
		ch := rs.acked
		rs.mu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			return ErrReplSyncTimeout
		}
		t := time.NewTimer(remain)
		select {
		case <-ch:
		case <-t.C:
		}
		t.Stop()
		rs.mu.Lock()
		if rs.role != RolePrimary {
			// Demoted mid-wait: the batch's fate now belongs to the new
			// primary's history. Don't acknowledge.
			primary := rs.primaryAddr
			rs.mu.Unlock()
			return &NotPrimaryError{Primary: primary}
		}
	}
	rs.mu.Unlock()
	return nil
}

// ---- wire handlers -------------------------------------------------------

// handleState answers msgReplState:
// [u8 role][u64 epoch][u64 applied][u64 staleness ms][primary addr].
func (rs *ReplState) handleState() (byte, []byte) {
	applied := rs.db.StoreSeq()
	rs.mu.Lock()
	role, epoch, primary := rs.role, rs.epoch, rs.primaryAddr
	var staleMs uint64
	if role != RolePrimary {
		staleMs = uint64(time.Since(rs.lastContact) / time.Millisecond)
	}
	rs.mu.Unlock()
	buf := make([]byte, 1+8+8+8+len(primary))
	buf[0] = byte(role)
	binary.LittleEndian.PutUint64(buf[1:], epoch)
	binary.LittleEndian.PutUint64(buf[9:], applied)
	binary.LittleEndian.PutUint64(buf[17:], staleMs)
	copy(buf[25:], primary)
	return msgReplStateResult, buf
}

// handleSnapshot answers msgReplSnapshot with [u64 seq][db-state blob] —
// the full-sync transfer for a fresh replica. Primary only.
func (rs *ReplState) handleSnapshot() (byte, []byte) {
	if rs.Role() != RolePrimary {
		return errorResponse(&NotPrimaryError{Primary: rs.PrimaryAddr()})
	}
	seq, blob, err := rs.db.SnapshotBlob()
	if err != nil {
		return errorResponse(err)
	}
	buf := make([]byte, 8+len(blob))
	binary.LittleEndian.PutUint64(buf, seq)
	copy(buf[8:], blob)
	return msgReplSnapshotResult, buf
}

// handleFetch answers msgReplFetch — the pull/ack message:
// [u64 fromSeq][u32 max][u32 waitMs][replica id]. The fromSeq is the
// replica's acknowledged offset; the response is a msgReplBatch of up to
// max records starting there, long-polling up to waitMs (capped) when the
// replica is already at the head.
func (rs *ReplState) handleFetch(ctx context.Context, payload []byte) (byte, []byte) {
	if len(payload) < 16 {
		return errorResponse(errors.New("bad repl fetch request"))
	}
	from := binary.LittleEndian.Uint64(payload)
	max := int(binary.LittleEndian.Uint32(payload[8:]))
	wait := time.Duration(binary.LittleEndian.Uint32(payload[12:])) * time.Millisecond
	id := string(payload[16:])
	if max <= 0 {
		max = 1
	}
	if wait > replFetchMaxWait {
		wait = replFetchMaxWait
	}

	rs.mu.Lock()
	if rs.role != RolePrimary {
		primary := rs.primaryAddr
		rs.mu.Unlock()
		return errorResponse(&NotPrimaryError{Primary: primary})
	}
	if id != "" {
		rs.recordAckLocked(id, from)
	}
	if rs.lagRecords != nil {
		head := rs.db.StoreSeq()
		var minAck uint64 = head
		for _, off := range rs.acks {
			if off < minAck {
				minAck = off
			}
		}
		rs.lagRecords.Set(int64(head - minAck))
	}
	// Check out this replica's cached reader (if its position matches).
	r := rs.readers[id]
	delete(rs.readers, id)
	appended := rs.appended
	rs.mu.Unlock()

	if r != nil && r.Pos() != from {
		r.Close()
		r = nil
	}
	if r == nil {
		var err error
		r, err = rs.db.OpenWALReader(from)
		if err != nil {
			return errorResponse(err)
		}
	}

	records, err := readBatch(r, max)
	if err != nil {
		r.Close()
		return errorResponse(err)
	}
	if len(records) == 0 && wait > 0 {
		// At the head: long-poll for new durable records, then try once
		// more. One round only — the replica re-polls anyway.
		t := time.NewTimer(wait)
		select {
		case <-appended:
		case <-t.C:
		case <-ctx.Done():
		}
		t.Stop()
		if ctx.Err() == nil {
			if records, err = readBatch(r, max); err != nil {
				r.Close()
				return errorResponse(err)
			}
		}
	}

	// Check the reader back in unless the node was demoted meanwhile (or a
	// concurrent fetch for the same id already parked one).
	rs.mu.Lock()
	if rs.role == RolePrimary && rs.readers[id] == nil && id != "" {
		rs.readers[id] = r
	} else {
		r.Close()
	}
	var streamed int
	for _, rec := range records {
		streamed += len(rec)
	}
	if rs.bytesStreamed != nil && streamed > 0 {
		rs.bytesStreamed.Add(uint64(streamed))
	}
	rs.mu.Unlock()

	return msgReplBatch, encodeReplBatch(from, rs.db.StoreSeq(), records)
}

// readBatch drains up to max records (bounded by replBatchMaxBytes) from r,
// treating the live-tail EOF as "no more for now".
func readBatch(r *store.WALReader, max int) ([][]byte, error) {
	var records [][]byte
	var total int
	for len(records) < max && total < replBatchMaxBytes {
		payload, _, err := r.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return records, err
		}
		records = append(records, payload)
		total += len(payload)
	}
	return records, nil
}

// encodeReplBatch builds a msgReplBatch payload:
// [u64 firstSeq][u64 head][u32 n][n x (u32 len + record)].
func encodeReplBatch(firstSeq, head uint64, records [][]byte) []byte {
	size := 8 + 8 + 4
	for _, rec := range records {
		size += 4 + len(rec)
	}
	buf := make([]byte, size)
	binary.LittleEndian.PutUint64(buf, firstSeq)
	binary.LittleEndian.PutUint64(buf[8:], head)
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(records)))
	off := 20
	for _, rec := range records {
		binary.LittleEndian.PutUint32(buf[off:], uint32(len(rec)))
		off += 4
		off += copy(buf[off:], rec)
	}
	return buf
}

// decodeReplBatch parses a msgReplBatch payload.
func decodeReplBatch(p []byte) (firstSeq, head uint64, records [][]byte, err error) {
	if len(p) < 20 {
		return 0, 0, nil, errors.New("short repl batch")
	}
	firstSeq = binary.LittleEndian.Uint64(p)
	head = binary.LittleEndian.Uint64(p[8:])
	n := binary.LittleEndian.Uint32(p[16:])
	off := 20
	records = make([][]byte, 0, n)
	for i := uint32(0); i < n; i++ {
		if off+4 > len(p) {
			return 0, 0, nil, errors.New("truncated repl batch")
		}
		ln := int(binary.LittleEndian.Uint32(p[off:]))
		off += 4
		if off+ln > len(p) {
			return 0, 0, nil, errors.New("truncated repl batch record")
		}
		records = append(records, p[off:off+ln])
		off += ln
	}
	return firstSeq, head, records, nil
}

// handleFollow answers msgReplFollow [u64 epoch][primary addr].
func (rs *ReplState) handleFollow(payload []byte) (byte, []byte) {
	if len(payload) < 8 {
		return errorResponse(errors.New("bad repl follow request"))
	}
	epoch := binary.LittleEndian.Uint64(payload)
	addr := string(payload[8:])
	if err := rs.Follow(epoch, addr); err != nil {
		return errorResponse(err)
	}
	return msgReplAck, nil
}

// handlePromote answers msgReplPromote [u64 epoch].
func (rs *ReplState) handlePromote(payload []byte) (byte, []byte) {
	if len(payload) != 8 {
		return errorResponse(errors.New("bad repl promote request"))
	}
	if err := rs.Promote(binary.LittleEndian.Uint64(payload)); err != nil {
		return errorResponse(err)
	}
	return msgReplAck, nil
}

// ---- Database surface used by replication --------------------------------

// SetRepl installs the fleet control block. Must happen before the
// database serves traffic (NewReplState calls it); the field is read
// without synchronization afterwards.
func (db *Database) SetRepl(rs *ReplState) { db.repl = rs }

// StoreSeq returns the durable record count — the replication offset of
// this node. Zero for an in-memory database.
func (db *Database) StoreSeq() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.store == nil {
		return 0
	}
	return db.store.Seq()
}

// OpenWALReader opens a streaming reader over the database's WAL at
// position from (see store.OpenReader for the position contract).
func (db *Database) OpenWALReader(from uint64) (*store.WALReader, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.store == nil {
		return nil, errors.New("server: replication requires a durable database (no data directory)")
	}
	return db.store.OpenReader(from)
}

// SnapshotBlob serializes the full database state for a replica full-sync,
// returning the WAL offset the blob covers. Taken under the read lock:
// ingest's append+publish happens under the write lock, so the published
// view is stable here and the blob and the offset are mutually consistent.
func (db *Database) SnapshotBlob() (seq uint64, blob []byte, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.store == nil {
		return 0, nil, errors.New("server: replication requires a durable database (no data directory)")
	}
	var buf bytes.Buffer
	if err := db.writeState(db.cur.Load(), &buf); err != nil {
		return 0, nil, err
	}
	return db.store.Seq(), buf.Bytes(), nil
}

// ApplyReplRecords applies fetched WAL records to a replica database in
// order. Each record is a primary WAL payload; it is decoded and re-applied
// through the seq-tagged ingest path, whose deterministic re-encoding
// appends the byte-identical record to the replica's own WAL — so logs,
// sequence tags, and therefore Locate results match the primary exactly.
func (db *Database) ApplyReplRecords(ctx context.Context, records [][]byte) error {
	for _, rec := range records {
		ms, seqs, err := decodeSeqMappings(rec)
		if err != nil {
			return fmt.Errorf("server: decoding replicated record: %w", err)
		}
		if err := db.IngestSeq(ctx, ms, seqs); err != nil {
			return err
		}
	}
	return nil
}

// gateWrite rejects ingests on non-primaries with a redirect. Nil rs (no
// replication configured) gates nothing.
func (rs *ReplState) gateWrite() error {
	if rs == nil {
		return nil
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.role != RolePrimary {
		return &NotPrimaryError{Primary: rs.primaryAddr}
	}
	return nil
}

// gateRead redirects queries a replica may no longer answer: candidates
// always (their state is mid-replacement), replicas past the staleness
// bound. Fresh replicas and the primary serve locally. Nil rs gates
// nothing.
func (rs *ReplState) gateRead() error {
	if rs == nil {
		return nil
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	switch rs.role {
	case RolePrimary:
		return nil
	case RoleCandidate:
		return &NotPrimaryError{Primary: rs.primaryAddr}
	default:
		stale := time.Since(rs.lastContact)
		if rs.lagNs != nil {
			rs.lagNs.Set(int64(stale))
		}
		if stale > rs.maxStaleness {
			return &NotPrimaryError{Primary: rs.primaryAddr}
		}
		return nil
	}
}
