// Package track is the server-side continuous-localization session store:
// a bounded, TTL-evicted table of recent pose fixes per client session,
// plus a constant-velocity motion model that turns those fixes into a
// predicted pose + uncertainty radius — the prior that warm-starts the
// next differential-evolution solve (pose.Options.PriorPos/PriorRadius).
//
// MobileARLoc (PAPERS.md) is the production shape being reproduced:
// absolute localization fused with an on-device pose prior. Here the prior
// lives server-side, keyed by an opaque client-chosen session ID carried
// in the request header (see internal/server reqHeader), so the client
// protocol stays a plain fingerprint upload.
//
// The table is lock-sharded: Locate's RCU read path holds no database
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

// Config sizes the session table and tunes the motion-model prior and the
// warm solve built from it. The zero value is usable: New applies the
// documented defaults to every zero field.
type Config struct {
	// Capacity bounds the total tracked sessions; the least-recently-used
	// session of the arriving session's shard is evicted past it.
	// Default 4096.
	Capacity int
	// TTL evicts sessions idle longer than this (a user who stopped
	// localizing). Default 2 minutes.
	TTL time.Duration
	// Shards is the lock-shard count (rounded up to a power of two).
	// Default 16.
	Shards int
	// History is the number of pose fixes retained per session.
	// Default 8.
	History int
	// BaseRadius is the prior half-width (meters) for a stationary,
	// just-observed session; prediction uncertainty (fix age, speed,
	// missing velocity estimate) scales it up from there. Default 0.08 —
	// at continuous-tracking frame rates the constant-velocity prediction
	// is millimeter-accurate, and a wrong prior is caught by the
	// acceptance gate and re-solved cold.
	BaseRadius float64
	// MaxRadius caps the prior half-width as uncertainty grows with
	// speed and fix age. Default 2.5.
	MaxRadius float64
	// MaxSpeed clamps the motion-model velocity estimate (meters/second)
	// against corrupt timestamps or teleporting fixes. Default 3.
	MaxSpeed float64
	// MaxPredictAge disables prediction when the last fix is older than
	// this — the extrapolation would be guesswork. Default 2 seconds.
	MaxPredictAge time.Duration
	// AcceptResidual is the floor of the warm-solve acceptance gate: a
	// warm result whose mean per-pair residual (radians) exceeds
	// max(AcceptResidual, minResidual*AcceptFactor) — minResidual being
	// the best residual across the session's retained fixes — is
	// discarded and the request falls back to the cold solve. The floor
	// covers near-perfect corpora where the session's residuals are ~0.
	// Default 0.02.
	AcceptResidual float64
	// AcceptFactor scales the session's best retained residual into the
	// acceptance gate — the achievable residual is a property of the
	// corpus (descriptor mismatch noise), not of the solver, so "as good
	// as the session's recent fixes, within slack" is the meaningful test
	// of a correct prior. Anchoring on the window minimum rather than the
	// last fix keeps the gate from ratcheting looser frame over frame.
	// Default 1.5.
	AcceptFactor float64
	// WarmMinResidual is the floor of the warm solve's absolute
	// early-convergence stop (pose.Options.MinResidual). Default 3e-4.
	WarmMinResidual float64
	// WarmStopFactor scales the session's best retained residual into the
	// early stop: the warm solve halts once it is clearly better than
	// every recent fix (below the window minimum by this factor) — a
	// conservative shortcut that cannot compound error along a
	// trajectory the way "within slack of the last fix" would. On
	// corpora where the residual floor is noise-dominated the stop
	// simply never fires and the solve converges via WarmTol. Default 0.5.
	WarmStopFactor float64
	// WarmTol overrides the pose solver's population-convergence tolerance
	// (pose.Options.Tol) for warm solves. Default 0.0007 — tighter than
	// the cold default 0.001: inside the shrunk prior box the extra polish
	// costs a handful of generations and roughly halves the median pose
	// error on the walk benchmark, so warm answers beat cold ones instead
	// of merely matching them. Loosening it trades accuracy back for
	// generations.
	WarmTol float64
}

// DefaultConfig returns the documented defaults.
func DefaultConfig() Config {
	return Config{
		Capacity:        4096,
		TTL:             2 * time.Minute,
		Shards:          16,
		History:         8,
		BaseRadius:      0.08,
		MaxRadius:       2.5,
		MaxSpeed:        3,
		MaxPredictAge:   2 * time.Second,
		AcceptResidual:  0.02,
		AcceptFactor:    1.5,
		WarmMinResidual: 3e-4,
		WarmStopFactor:  0.5,
		WarmTol:         0.0007,
	}
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Capacity <= 0 {
		c.Capacity = d.Capacity
	}
	if c.TTL <= 0 {
		c.TTL = d.TTL
	}
	if c.Shards <= 0 {
		c.Shards = d.Shards
	}
	for c.Shards&(c.Shards-1) != 0 {
		c.Shards++
	}
	if c.History <= 0 {
		c.History = d.History
	}
	if c.BaseRadius <= 0 {
		c.BaseRadius = d.BaseRadius
	}
	if c.MaxRadius < c.BaseRadius {
		c.MaxRadius = d.MaxRadius
	}
	if c.MaxSpeed <= 0 {
		c.MaxSpeed = d.MaxSpeed
	}
	if c.MaxPredictAge <= 0 {
		c.MaxPredictAge = d.MaxPredictAge
	}
	if c.AcceptResidual <= 0 {
		c.AcceptResidual = d.AcceptResidual
	}
	if c.AcceptFactor <= 0 {
		c.AcceptFactor = d.AcceptFactor
	}
	if c.WarmMinResidual <= 0 {
		c.WarmMinResidual = d.WarmMinResidual
	}
	if c.WarmStopFactor <= 0 {
		c.WarmStopFactor = d.WarmStopFactor
	}
	if c.WarmTol <= 0 {
		c.WarmTol = d.WarmTol
	}
	return c
}

// Prior is a predicted camera pose with an uncertainty half-width — the
// warm start handed to the pose solver. Residual is the session's best
// retained solve quality (minimum mean radians per pair across the fix
// history), the baseline the warm solve's acceptance gate and early stop
// are scaled from.
type Prior struct {
	Pos      mathx.Vec3
	Yaw      float64
	Radius   float64
	Residual float64
}

// fix is one accepted localization result.
type fix struct {
	pos      mathx.Vec3
	yaw      float64
	residual float64
	at       time.Time
}

// session is one tracked client; owned by exactly one shard, manipulated
// only under that shard's lock.
type session struct {
	id   uint64
	ring []fix // capacity Config.History
	n    int   // fixes stored (<= cap)
	head int   // next write slot
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
	cfg      Config
	perShard int
	shards   []shard

	// Metrics are nil-safe no-ops until Instrument is called.
	sessions  *obs.Gauge
	created   *obs.Counter
	evictions *obs.Counter
	expired   *obs.Counter
}

// New builds a table with cfg (zero fields defaulted).
func New(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{cfg: cfg, shards: make([]shard, cfg.Shards)}
	t.perShard = (cfg.Capacity + cfg.Shards - 1) / cfg.Shards
	if t.perShard < 1 {
		t.perShard = 1
	}
	for i := range t.shards {
		t.shards[i].m = make(map[uint64]*session)
	}
	return t
}

// Config returns the effective (defaulted) configuration.
func (t *Table) Config() Config { return t.cfg }

// Instrument registers the table's metrics on reg:
//
//	track_sessions        gauge    currently tracked sessions
//	track_created         counter  sessions ever created
//	track_evicted         counter  capacity evictions (LRU)
//	track_expired         counter  TTL expiries
func (t *Table) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	t.sessions = reg.Gauge("track_sessions")
	t.created = reg.Counter("track_created")
	t.evictions = reg.Counter("track_evicted")
	t.expired = reg.Counter("track_expired")
}

func (t *Table) shardFor(id uint64) *shard {
	// Fibonacci hash: session IDs are client-chosen and may be sequential.
	// The shard count is a power of two, so the upper mixed bits mask down.
	h := id * 0x9e3779b97f4a7c15
	return &t.shards[(h>>32)&uint64(len(t.shards)-1)]
}

// Observe records an accepted localization fix for id, creating the
// session on first contact (evicting the shard's LRU session past
// capacity) and opportunistically expiring idle sessions on the same
// shard.
func (t *Table) Observe(id uint64, pos mathx.Vec3, yaw, residual float64, now time.Time) {
	sh := t.shardFor(id)
	sh.mu.Lock()
	t.sweepLocked(sh, now)
	s := sh.m[id]
	if s == nil {
		if len(sh.m) >= t.perShard {
			t.evictLocked(sh, sh.back)
			t.evictions.Inc()
		}
		s = &session{id: id, ring: make([]fix, t.cfg.History)}
		sh.m[id] = s
		t.created.Inc()
		t.sessions.Add(1)
	}
	s.ring[s.head] = fix{pos: pos, yaw: yaw, residual: residual, at: now}
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
// TTL-expired, or its last fix is older than MaxPredictAge. The returned
// radius grows with estimated speed and fix age from BaseRadius up to
// MaxRadius.
func (t *Table) Predict(id uint64, now time.Time) (Prior, bool) {
	sh := t.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := sh.m[id]
	if s == nil || s.n == 0 {
		return Prior{}, false
	}
	if now.Sub(s.last) > t.cfg.TTL {
		t.evictLocked(sh, s)
		t.expired.Inc()
		return Prior{}, false
	}
	newest := s.latest(0)
	age := now.Sub(newest.at)
	if age < 0 {
		age = 0
	}
	if age > t.cfg.MaxPredictAge {
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
	p := Prior{Pos: newest.pos, Yaw: newest.yaw, Radius: t.cfg.BaseRadius, Residual: minRes}
	speed, haveVel := 0.0, false
	if s.n >= 2 {
		prevFix := s.latest(1)
		dt := newest.at.Sub(prevFix.at).Seconds()
		if dt > 0 {
			haveVel = true
			v := newest.pos.Sub(prevFix.pos).Scale(1 / dt)
			speed = v.Norm()
			if speed > t.cfg.MaxSpeed {
				v = v.Scale(t.cfg.MaxSpeed / speed)
				speed = t.cfg.MaxSpeed
			}
			p.Pos = p.Pos.Add(v.Scale(ageS))
		}
	}
	// Uncertainty: half a base width per traveled meter of extrapolation,
	// plus a stationary floor that grows as the fix ages.
	p.Radius = t.cfg.BaseRadius * (1 + ageS + speed*ageS)
	if !haveVel {
		// Single fix: the velocity is unknown, so a position-hold prior's
		// true uncertainty is however far the device can have walked —
		// without this the second frame of a brisk walk lands outside the
		// base box and the clipped solve carries centimeters of error.
		p.Radius += t.cfg.MaxSpeed * ageS
	}
	if p.Radius > t.cfg.MaxRadius {
		p.Radius = t.cfg.MaxRadius
	}
	return p, true
}

// Forget drops id's session, if present.
func (t *Table) Forget(id uint64) {
	sh := t.shardFor(id)
	sh.mu.Lock()
	if s := sh.m[id]; s != nil {
		t.evictLocked(sh, s)
	}
	sh.mu.Unlock()
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
		for sh.back != nil && now.Sub(sh.back.last) > t.cfg.TTL {
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
		if s == nil || now.Sub(s.last) <= t.cfg.TTL {
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
