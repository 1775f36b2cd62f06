// Package track is the server-side continuous-localization session store:
// a bounded, TTL-evicted table of recent pose fixes per client session,
// plus a constant-velocity motion model that turns those fixes into a
// predicted pose + uncertainty radius — the prior that starts the next
// warm pose solve, a local refinement around it (pose.LocalizeWarm).
//
// MobileARLoc (PAPERS.md) is the production shape being reproduced:
// absolute localization fused with an on-device pose prior. Here the prior
// lives server-side, keyed by an opaque client-chosen session ID carried
// in the request header (see internal/server reqHeader), so the client
// protocol stays a plain fingerprint upload.
//
// The table is lock-sharded: Locate's read path holds no database
// lock, and the session lookup riding on it must not reintroduce one
// global serialization point. Each shard owns a map plus an intrusive LRU
// list; eviction (capacity and TTL) is amortized inline on the accessing
// shard — no background goroutine, so the package is trivially
// leak-checker clean.
package track

import (
	"sync"
	"time"

	"visualprint/internal/mathx"
	"visualprint/internal/obs"
)

// The session table's size and the motion model's prior. Each has one
// setting; the warm solve the prior feeds is tuned in internal/pose
// (LocalizeWarm).
const (
	// capacity bounds the total tracked sessions; the least-recently-used
	// session of the arriving session's shard is evicted past it.
	capacity = 4096
	// ttl evicts sessions idle longer than this (a user who stopped
	// localizing).
	ttl = 2 * time.Minute
	// numShards is the lock-shard count, a power of two.
	numShards = 16
	// perShard is a shard's share of capacity.
	perShard = capacity / numShards
	// history is the number of pose fixes retained per session.
	history = 8
	// baseRadius is the prior half-width (meters) for a stationary,
	// just-observed session; prediction uncertainty (fix age, speed,
	// missing velocity estimate) scales it up from there. At continuous-
	// tracking frame rates the constant-velocity prediction is
	// millimeter-accurate, and a wrong prior is caught by the warm solve's
	// acceptance gate and re-solved cold.
	baseRadius = 0.08
	// maxRadius caps the prior half-width as uncertainty grows with speed
	// and fix age.
	maxRadius = 2.5
	// maxSpeed clamps the motion-model velocity estimate (meters/second)
	// against corrupt timestamps or teleporting fixes.
	maxSpeed = 3
	// maxPredictAge disables prediction when the last fix is older than
	// this: the extrapolation would be guesswork.
	maxPredictAge = 2 * time.Second
)

// Prior is a predicted camera position with an uncertainty half-width — the
// warm start handed to the pose solver. Residual is the session's best
// retained solve quality (minimum mean radians per pair across the fix
// history), the baseline the warm solve's acceptance gate is scaled from.
type Prior struct {
	Pos      mathx.Vec3
	Radius   float64
	Residual float64
}

// fix is one accepted localization result.
type fix struct {
	pos      mathx.Vec3
	residual float64
	at       time.Time
}

// session is one tracked client; owned by exactly one shard, manipulated
// only under that shard's lock.
type session struct {
	id   uint64
	ring [history]fix
	n    int // fixes stored (<= cap)
	head int // next write slot
	last time.Time
	// intrusive LRU list (most-recent at the shard's front)
	prev, next *session
}

// latest returns the i-th most recent fix (0 = newest). Caller guarantees
// i < n.
func (s *session) latest(i int) fix {
	idx := (s.head - 1 - i + 2*len(s.ring)) % len(s.ring)
	return s.ring[idx]
}

type shard struct {
	mu    sync.Mutex
	m     map[uint64]*session
	front *session // most recently used
	back  *session // least recently used
	_     [32]byte // keep neighboring shards off one cache line
}

// Table is the lock-sharded session store. All methods are safe for
// concurrent use.
type Table struct {
	shards [numShards]shard

	sessions  *obs.Gauge
	created   *obs.Counter
	evictions *obs.Counter
	expired   *obs.Counter
}

// New builds an empty table recording into reg (nil records nothing):
//
//	track_sessions        gauge    currently tracked sessions
//	track_created         counter  sessions ever created
//	track_evicted         counter  capacity evictions (LRU)
//	track_expired         counter  TTL expiries
func New(reg *obs.Registry) *Table {
	t := &Table{
		sessions:  reg.Gauge("track_sessions"),
		created:   reg.Counter("track_created"),
		evictions: reg.Counter("track_evicted"),
		expired:   reg.Counter("track_expired"),
	}
	for i := range t.shards {
		t.shards[i].m = make(map[uint64]*session)
	}
	return t
}

func (t *Table) shardFor(id uint64) *shard {
	// Fibonacci hash: session IDs are client-chosen and may be sequential.
	// The shard count is a power of two, so the upper mixed bits mask down.
	h := id * 0x9e3779b97f4a7c15
	return &t.shards[(h>>32)&(numShards-1)]
}

// Observe records an accepted localization fix for id, creating the
// session on first contact (evicting the shard's LRU session past
// capacity) and opportunistically expiring idle sessions on the same
// shard.
func (t *Table) Observe(id uint64, pos mathx.Vec3, residual float64, now time.Time) {
	sh := t.shardFor(id)
	sh.mu.Lock()
	t.sweepLocked(sh, now)
	s := sh.m[id]
	if s == nil {
		if len(sh.m) >= perShard {
			t.evictLocked(sh, sh.back)
			t.evictions.Inc()
		}
		s = &session{id: id}
		sh.m[id] = s
		t.created.Inc()
		t.sessions.Add(1)
	}
	s.ring[s.head] = fix{pos: pos, residual: residual, at: now}
	s.head = (s.head + 1) % len(s.ring)
	if s.n < len(s.ring) {
		s.n++
	}
	s.last = now
	t.touchLocked(sh, s)
	sh.mu.Unlock()
}

// Predict extrapolates id's next pose at time now with the
// constant-velocity model over the two most recent fixes (position hold
// with a single fix). It returns false when the session is unknown,
// TTL-expired, or its last fix is older than maxPredictAge. The returned
// radius grows with estimated speed and fix age from baseRadius up to
// maxRadius.
func (t *Table) Predict(id uint64, now time.Time) (Prior, bool) {
	sh := t.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := sh.m[id]
	if s == nil || s.n == 0 {
		return Prior{}, false
	}
	if now.Sub(s.last) > ttl {
		t.evictLocked(sh, s)
		t.expired.Inc()
		return Prior{}, false
	}
	newest := s.latest(0)
	age := now.Sub(newest.at)
	if age < 0 {
		age = 0
	}
	if age > maxPredictAge {
		return Prior{}, false
	}
	t.touchLocked(sh, s)
	ageS := age.Seconds()
	// The residual anchor is the best (minimum) residual across the
	// retained fixes, not the newest: an anchor that can only improve
	// within the window keeps the residual-relative gates from ratcheting
	// looser fix over fix along a trajectory, while eviction of old fixes
	// still lets it adapt when the device walks into a noisier area.
	minRes := newest.residual
	for i := 1; i < s.n; i++ {
		if r := s.latest(i).residual; r < minRes {
			minRes = r
		}
	}
	p := Prior{Pos: newest.pos, Radius: baseRadius, Residual: minRes}
	speed, haveVel := 0.0, false
	if s.n >= 2 {
		prevFix := s.latest(1)
		dt := newest.at.Sub(prevFix.at).Seconds()
		if dt > 0 {
			haveVel = true
			v := newest.pos.Sub(prevFix.pos).Scale(1 / dt)
			speed = v.Norm()
			if speed > maxSpeed {
				v = v.Scale(maxSpeed / speed)
				speed = maxSpeed
			}
			p.Pos = p.Pos.Add(v.Scale(ageS))
		}
	}
	// Uncertainty: half a base width per traveled meter of extrapolation,
	// plus a stationary floor that grows as the fix ages.
	p.Radius = baseRadius * (1 + ageS + speed*ageS)
	if !haveVel {
		// Single fix: the velocity is unknown, so a position-hold prior's
		// true uncertainty is however far the device can have walked —
		// without this the second frame of a brisk walk lands outside the
		// base box and the clipped solve carries centimeters of error.
		p.Radius += maxSpeed * ageS
	}
	if p.Radius > maxRadius {
		p.Radius = maxRadius
	}
	return p, true
}

// Len returns the number of tracked sessions.
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// ExpireIdle sweeps every shard, evicting sessions idle past the TTL, and
// returns how many it removed. Eviction is otherwise amortized inline on
// shard access; this full sweep exists for tests and operators.
func (t *Table) ExpireIdle(now time.Time) int {
	total := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for sh.back != nil && now.Sub(sh.back.last) > ttl {
			t.evictLocked(sh, sh.back)
			t.expired.Inc()
			total++
		}
		sh.mu.Unlock()
	}
	return total
}

// sweepLocked expires up to two idle sessions from the shard's LRU tail —
// O(1) amortized TTL enforcement riding on normal traffic.
func (t *Table) sweepLocked(sh *shard, now time.Time) {
	for i := 0; i < 2; i++ {
		s := sh.back
		if s == nil || now.Sub(s.last) <= ttl {
			return
		}
		t.evictLocked(sh, s)
		t.expired.Inc()
	}
}

// touchLocked moves s to the shard's LRU front.
func (t *Table) touchLocked(sh *shard, s *session) {
	if sh.front == s {
		return
	}
	// unlink
	if s.prev != nil {
		s.prev.next = s.next
	}
	if s.next != nil {
		s.next.prev = s.prev
	}
	if sh.back == s {
		sh.back = s.prev
	}
	// push front
	s.prev = nil
	s.next = sh.front
	if sh.front != nil {
		sh.front.prev = s
	}
	sh.front = s
	if sh.back == nil {
		sh.back = s
	}
}

// evictLocked removes s from the shard's map and LRU list.
func (t *Table) evictLocked(sh *shard, s *session) {
	if s == nil {
		return
	}
	delete(sh.m, s.id)
	if s.prev != nil {
		s.prev.next = s.next
	}
	if s.next != nil {
		s.next.prev = s.prev
	}
	if sh.front == s {
		sh.front = s.next
	}
	if sh.back == s {
		sh.back = s.prev
	}
	s.prev, s.next = nil, nil
	t.sessions.Add(-1)
}
