package runtime

import (
	"fmt"
	"iter"
	"slices"
	"sync"
	"time"

	"bestsync/internal/alloc"
	"bestsync/internal/core"
	"bestsync/internal/metric"
	"bestsync/internal/priority"
	"bestsync/internal/transport"
)

// SourceConfig configures a live source node.
type SourceConfig struct {
	// ID identifies the source to its caches.
	ID string
	// Metric selects the divergence metric driving refresh priorities.
	Metric metric.Kind
	// Delta is the value-deviation function (nil = |V1 − V2|).
	Delta metric.DeltaFunc
	// PriorityFn selects the refresh-priority function; the zero value
	// (AreaGeneral) suits value deviation; use the Poisson special cases
	// for staleness/lag (Section 8.1).
	PriorityFn priority.Fn
	// Bandwidth is the source-side send budget in messages/second. A
	// fan-out source divides it across its destinations by their share
	// weights (Section 7 allocation, internal/alloc). The division is live:
	// AddDestination/RemoveDestination re-divide it across the survivors, and
	// SetBandwidth replaces it at runtime.
	Bandwidth float64
	// Rebalance, when positive, enables the periodic re-allocation pass:
	// every Rebalance interval the shares are re-derived from observed
	// per-destination feedback rates and outstanding divergence (the
	// paper's option-3 contribution scores computed live — see
	// alloc.Rebalancer), so a starved-but-responsive cache earns share
	// from an idle or saturated one. Zero keeps the static Section 7
	// split: shares move only when the destination set or the total
	// bandwidth changes.
	Rebalance time.Duration
	// Tick is the flusher's pass interval (default 100 ms).
	Tick time.Duration
	// Policy selects the synchronization policy toward the caches. Under
	// the default PolicyPush the destinations' groups run the paper's §5
	// protocol (priority queue, adaptive threshold, source-initiated
	// refreshes). Under a cache-driven policy (ideal/cgm1/cgm2) the sessions
	// instead ANSWER the caches' polls from the local store — no priorities,
	// no thresholds, no pushes — pacing replies with a token bucket at the
	// destination's share of Bandwidth so message accounting stays
	// comparable. Cache-driven policies require every destination
	// connection to implement transport.PollConn (both provided transports
	// and the Batcher do).
	Policy Policy
	// Params tunes the threshold algorithm; zero means paper defaults.
	// All groups share the same parameters; each applies them to its own
	// independent threshold.
	Params core.Params
	// Weight assigns refresh weights (importance × popularity) per object;
	// nil means weight 1 for all.
	Weight func(objectID string) float64
	// Group configures push delivery (see GroupConfig): with Group.Enabled
	// on a PolicyPush source the default-weight destinations share one
	// SessionGroup, one scheduling pass and one encode per batch; every other
	// push destination is a group of its own.
	Group GroupConfig
	// Now overrides the clock (tests); defaults to time.Now.
	Now func() time.Time
}

// SourceStats counts protocol activity. The top-level counters aggregate
// across all sync sessions (for a single-cache source they are exactly the
// session's own); Sessions carries the per-destination breakdown. Sessions
// that ended (connection gone, no redial) keep their historical counters in
// the aggregates but are excluded from Pending and the Threshold mean — a
// dead session's frozen threshold says nothing about the live topology.
type SourceStats struct {
	// Policy names the synchronization policy the source runs (push, or a
	// cache-driven poll mode where Refreshes counts reply items delivered).
	Policy     string
	Updates    int
	Refreshes  int
	Feedbacks  int
	SendErrors int
	Pending    int
	// PollsAnswered counts poll requests answered across all sessions
	// (cache-driven policies only).
	PollsAnswered int
	// PollOmits counts poll items withheld from replies across all
	// sessions: split horizon (the poller is on the value's path) or a
	// known-version hint proving the poller already at-or-ahead.
	PollOmits int
	// SuppressedObserves is always zero: no update's scheduling is deferred
	// any more. Kept for readers of older output.
	SuppressedObserves int
	// Rebalances counts completed periodic re-allocation passes
	// (SourceConfig.Rebalance).
	Rebalances int
	// Threshold is the mean threshold across the groups with a live member
	// (a single-cache source reports its one threshold unchanged): the
	// shared group's counts once.
	Threshold float64
	Sessions  []SessionStats
	// Group carries the shared group's breakdown when group delivery is
	// enabled and it has members; nil otherwise.
	Group *GroupStats
}

// objState is the canonical (destination-independent) state of one locally
// cached object: its current value and update history. What each
// downstream cache has been sent — and therefore how far it has diverged —
// is per-cohort state (schedObj in sched.go). It is 64 bytes and lives by
// value in the Source's objSlab; its provenance lives beside it, in the
// slab's column that only a relay fills.
type objState struct {
	id string
	// key is the object's queue key: its index in Source.order and in every
	// group's state slice. Resolving an id through Source.objs yields it with
	// the state, so nothing looks an object up twice.
	key     int32
	value   float64
	version uint64
	// Poisson-rate estimate (Section 8.1): total updates over total
	// observed time.
	updates int
	firstAt float64
	// lastUnix is the wall-clock time of the most recent update
	// (nanoseconds) — the last-modified metadata a poll reply carries for
	// the CGM1 estimator.
	lastUnix int64
}

// objChunkLen is the number of objects per objSlab chunk, and per scheduler
// chunk (schedTable). Go prefixes every pointer-holding object between 512 B
// and 32 KiB with an 8 B type header, so a chunk sized by habit lands one size
// class up — 64 × 128 B + 8 B is the 9 472 B class. A chunk of 512 objStates
// is 64 B × 512 = 32 KiB exactly and takes the large-object path: whole pages,
// no header, no byte wasted. The provenance column's 16 B entries come 2 048 to
// a chunk (provChunkLen) for the same 32 KiB; 512 × 56 B scheduler records are
// the 28 672 B class exactly, and hold no pointer, so they carry no header.
const (
	objChunkShift  = 9
	objChunkLen    = 1 << objChunkShift
	provChunkShift = objChunkShift + 2
	provChunkLen   = 1 << provChunkShift
)

// objSlab is a Source's object table, indexed by queue key in first-update
// order: objStates by value in chunks that never move, so growth copies
// nothing and a *objState stays valid for the Source's lifetime. Provenance
// is a parallel column whose chunk is allocated only when an update in its
// key range carries a non-zero one — an origin stores none. An entry is the
// value's origin-axis version and a pointer to its shared provRoute.
type objSlab struct {
	chunks []*[objChunkLen]objState
	provs  []*[provChunkLen]provSlot // nil or short: that key range has the zero provenance
	n      int
	// routes remembers the most recently resolved provenance routes, so an
	// object that changed route, or a first insertion, usually finds its
	// record without allocating. Replaced round-robin from nextRoute.
	routes    [routeMemo]*provRoute
	nextRoute int
}

// provSlot is one object's provenance: the origin-axis version, which moves
// with every update, and the route, which every object that arrived the same
// way shares (nil for a locally produced value).
type provSlot struct {
	version uint64
	rt      *provRoute
}

// provRoute is the part of a Provenance that depends only on how a value
// arrived — origin, hops, relay path and origin incarnation — the Source's
// counterpart of the cache's route. It is never mutated, and nothing indexes
// routes: one no slot or memo entry points to is garbage, so their memory is
// bounded by the live objects however many distinct paths arrive.
type provRoute struct {
	origin string
	hops   int
	via    []string
	epoch  int64
}

// is reports whether rt is p's route. A relay's paths come from a viaMemo,
// so a Via that is the route's own slice is recognised without reading it;
// otherwise it is compared by content.
func (rt *provRoute) is(p *Provenance) bool {
	if rt == nil || rt.origin != p.Origin || rt.hops != p.Hops || rt.epoch != p.Epoch ||
		(rt.via == nil) != (p.Via == nil) || len(rt.via) != len(p.Via) {
		return false
	}
	return len(p.Via) == 0 || &rt.via[0] == &p.Via[0] || slices.Equal(rt.via, p.Via)
}

// at returns the object with queue key k.
func (t *objSlab) at(k int) *objState {
	return &t.chunks[k>>objChunkShift][k&(objChunkLen-1)]
}

// all walks the objects in queue-key order.
func (t *objSlab) all() iter.Seq[*objState] {
	return func(yield func(*objState) bool) {
		for k := 0; k < t.n; k++ {
			if !yield(t.at(k)) {
				return
			}
		}
	}
}

// add appends a first-seen object and returns it.
func (t *objSlab) add(id string, now float64) *objState {
	k := t.n
	if k>>objChunkShift == len(t.chunks) {
		t.chunks = append(t.chunks, new([objChunkLen]objState))
	}
	t.n++
	o := t.at(k)
	o.id, o.key, o.firstAt = id, int32(k), now
	return o
}

// prov returns the provenance of the object with queue key k. It is a copy:
// the column is written only by setProv.
func (t *objSlab) prov(k int32) Provenance {
	c := int(k >> provChunkShift)
	if c >= len(t.provs) || t.provs[c] == nil {
		return Provenance{}
	}
	ps := &t.provs[c][k&(provChunkLen-1)]
	if rt := ps.rt; rt != nil {
		return Provenance{Origin: rt.origin, Hops: rt.hops, Via: rt.via, Epoch: rt.epoch, Version: ps.version}
	}
	return Provenance{Version: ps.version}
}

// setProv records the provenance of the object with queue key k. A zero
// provenance in a key range that has no column chunk is already stored.
func (t *objSlab) setProv(k int32, p *Provenance) {
	c := int(k >> provChunkShift)
	local := p.Origin == "" && p.Hops == 0 && p.Via == nil && p.Epoch == 0
	if c >= len(t.provs) || t.provs[c] == nil {
		if local && p.Version == 0 {
			return
		}
		if c >= len(t.provs) {
			t.provs = append(t.provs, make([]*[provChunkLen]provSlot, c+1-len(t.provs))...)
		}
		t.provs[c] = new([provChunkLen]provSlot)
	}
	ps := &t.provs[c][k&(provChunkLen-1)]
	ps.version = p.Version
	if local {
		ps.rt = nil
	} else {
		ps.rt = t.routeFor(ps.rt, p)
	}
}

// routeFor returns the shared route of p: cur when it already is that route
// (an object updated the way it was last time), else a match in the memo,
// else a new record that replaces the memo's oldest.
func (t *objSlab) routeFor(cur *provRoute, p *Provenance) *provRoute {
	if cur.is(p) {
		return cur
	}
	for _, rt := range t.routes {
		if rt.is(p) {
			return rt
		}
	}
	rt := &provRoute{origin: p.Origin, hops: p.Hops, via: p.Via, epoch: p.Epoch}
	t.routes[t.nextRoute] = rt
	t.nextRoute = (t.nextRoute + 1) % routeMemo
	return rt
}

// Provenance describes where a re-exported value came from: the producing
// source, the number of relay tiers it has crossed counting the exporting
// relay, and the path of relay ids it took (oldest first, ending with the
// exporting relay). A relay drops a refresh from re-export when its own id
// already appears on the path — the path-vector loop check that bounds
// topology cycles. Epoch/Version carry the ORIGIN's version axis for the
// value, preserved unchanged across hops (wire.Refresh.OriginAxis), so
// caches can compare copies of the same origin object across relay
// incarnations. The zero value means "produced locally".
type Provenance struct {
	Origin  string
	Hops    int
	Via     []string
	Epoch   int64
	Version uint64
}

// passedThrough reports whether node id produced this value or already
// relayed it — the one test behind split horizon on every delivery path: a
// send to such a peer is guaranteed to be rejected by its intake loop guard.
func (p *Provenance) passedThrough(id string) bool {
	return p.Origin == id || slices.Contains(p.Via, id)
}

// Source is a live source node. Applications call Update whenever a local
// object changes; the node decides, independently per receiver cohort, when
// each object is worth a refresh message.
//
// A Source is a thin coordinator. Every push destination is a member of one
// SessionGroup, whose scheduler ranks the objects against what that cohort
// was sent: Update observes the canonical change once per group, and the
// source's one flusher goroutine runs each group's Section 5 passes at the
// group's share of the send budget, so per-group thresholds converge
// independently. A group of its own sends on a worker of its own, so a
// stalled cache back-pressures only its own group, and a stalled member of
// the shared group lags instead. Each destination keeps a syncSession for
// its connection: feedback, polls, migration and redial.
type Source struct {
	cfg SourceConfig

	mu       sync.Mutex
	sessions []*syncSession // live + ended (removed ones are dropped)
	// group is the shared group when cfg.Group.Enabled on a PolicyPush
	// source; immutable after construction (its member set is what changes).
	// groups is every push group, the shared one included.
	group   *SessionGroup
	groups  []*SessionGroup
	reb     *alloc.Rebalancer
	seq     int     // next default CacheID ordinal (never reused)
	objs    idIndex // object id → queue key, confirmed against order.at(key).id
	order   objSlab // queue key → object and provenance, in first-update order
	updates int
	// bandwidth is the live total send budget; cfg.Bandwidth is only its
	// initial value (SetBandwidth replaces it at runtime).
	bandwidth  float64
	rebalances int
	started    time.Time

	// The push machinery: the shared group's sender worker pool (nil
	// without one), the flusher's reused snapshot of the groups, the
	// requests to pass early or resume (one slot: the flusher scans every
	// group) and its exit. Nil if nothing pushes.
	workers []*groupWorker
	passing []groupPass
	wake    chan struct{}
	flushed chan struct{}

	stop chan struct{}
}

// NewSource starts a source node sending through conn — the single-cache
// special case of NewFanoutSource.
func NewSource(cfg SourceConfig, conn transport.SourceConn) *Source {
	s, err := NewFanoutSource(cfg, []Destination{{Conn: conn}})
	if err != nil {
		// Unreachable: a one-destination config cannot fail validation
		// (the only error is a nil conn, which panicked before this
		// refactor too, just later and less clearly).
		panic(err)
	}
	return s
}

// NewFanoutSource starts a source node synchronizing every destination
// cache. cfg.Bandwidth is divided across destinations in proportion to
// their Weights (all-default weights mean equal shares); each destination
// gets its own sync session and feedback loop, and its own group, threshold
// and scheduler unless it shares the group of cfg.Group.Enabled.
func NewFanoutSource(cfg SourceConfig, dests []Destination) (*Source, error) {
	if len(dests) == 0 {
		return nil, fmt.Errorf("runtime: fan-out source needs at least one destination")
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 100 * time.Millisecond
	}
	if cfg.Bandwidth <= 0 {
		cfg.Bandwidth = 1000
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Params == (core.Params{}) {
		cfg.Params = core.DefaultParams(1, cfg.Bandwidth)
		cfg.Params.ExpectedFeedbackPeriod = 4 * cfg.Tick.Seconds()
	}
	for i := range dests {
		if dests[i].Conn == nil {
			return nil, fmt.Errorf("runtime: destination %d has a nil connection", i)
		}
		if cfg.Policy.CacheDriven() {
			if _, ok := dests[i].Conn.(transport.PollConn); !ok {
				return nil, fmt.Errorf("runtime: policy %v needs poll-capable connections; destination %d is not a transport.PollConn", cfg.Policy, i)
			}
		}
		if dests[i].CacheID == "" {
			dests[i].CacheID = fmt.Sprintf("cache-%d", i)
		}
		if dests[i].Weight <= 0 {
			dests[i].Weight = 1
		}
	}
	s := &Source{
		cfg:       cfg,
		seq:       len(dests),
		bandwidth: cfg.Bandwidth,
		started:   cfg.Now().Add(-time.Millisecond),
		stop:      make(chan struct{}),
	}
	if cfg.Rebalance > 0 {
		s.reb = &alloc.Rebalancer{}
	}
	if cfg.Policy.Pushes() {
		s.wake, s.flushed = make(chan struct{}, 1), make(chan struct{})
	}
	s.mu.Lock()
	if cfg.Group.Enabled && cfg.Policy.Pushes() {
		s.group = newSessionGroup(s)
		s.groups = append(s.groups, s.group)
		s.workers = make([]*groupWorker, cfg.Group.withDefaults().Workers)
		for i := range s.workers {
			s.workers[i] = startWorker()
		}
	}
	s.sessions = make([]*syncSession, len(dests))
	for i, d := range dests {
		s.sessions[i] = newSyncSession(s, d)
		s.joinLocked(s.sessions[i], 0)
	}
	s.reallocateLocked()
	s.mu.Unlock()
	for _, ss := range s.sessions {
		go ss.loop()
	}
	if s.flushed != nil {
		go s.flushLoop()
	}
	if cfg.Rebalance > 0 {
		go s.rebalanceLoop()
	}
	return s, nil
}

// AddDestination starts a sync session toward a new downstream cache on a
// running source, re-dividing the send budget across all live sessions. The
// new destination is sent every existing object — a shared-group member lags
// on all of them, a group of its own holds all of them as never sent — so
// the cache is fully synchronized from scratch, the redial contract. An
// empty CacheID is defaulted to a fresh "cache-<n>" label; a CacheID already
// in use by a live session is an error (RemoveDestination is keyed by it).
func (s *Source) AddDestination(d Destination) error {
	if d.Conn == nil {
		return fmt.Errorf("runtime: destination has a nil connection")
	}
	if s.cfg.Policy.CacheDriven() {
		if _, ok := d.Conn.(transport.PollConn); !ok {
			return fmt.Errorf("runtime: policy %v needs poll-capable connections", s.cfg.Policy)
		}
	}
	s.mu.Lock()
	select {
	case <-s.stop:
		s.mu.Unlock()
		return fmt.Errorf("runtime: source is closed")
	default:
	}
	if d.CacheID == "" {
		d.CacheID = fmt.Sprintf("cache-%d", s.seq)
	}
	s.seq++
	for _, ss := range s.sessions {
		if !ss.ended && ss.dest.CacheID == d.CacheID {
			s.mu.Unlock()
			return fmt.Errorf("runtime: destination %q already exists", d.CacheID)
		}
	}
	if d.Weight <= 0 {
		d.Weight = 1
	}
	ss := newSyncSession(s, d)
	s.joinLocked(ss, s.now())
	s.sessions = append(s.sessions, ss)
	s.reallocateLocked()
	s.mu.Unlock()
	go ss.loop()
	return nil
}

// RemoveDestination stops the sync session whose Destination.CacheID is
// cacheID, closes its connection, waits for its loop (and the sender worker
// of a group of its own) to exit, and re-divides the send budget across the
// survivors — their in-flight refreshes and scheduling state are untouched,
// only their rates move. The removed session's historical counters leave the
// aggregate Stats with it.
func (s *Source) RemoveDestination(cacheID string) error {
	s.mu.Lock()
	// Prefer the live session: AddDestination allows re-using the label of
	// an ended session, so an ended ghost with the same CacheID may sit at
	// a lower index — removing it instead would report success while the
	// live session kept sending. The ghost is only matched (as cleanup)
	// when no live session carries the label.
	var victim *syncSession
	idx := -1
	for i, ss := range s.sessions {
		if ss.dest.CacheID != cacheID {
			continue
		}
		if !ss.ended {
			victim, idx = ss, i
			break
		}
		if victim == nil {
			victim, idx = ss, i
		}
	}
	if victim == nil {
		s.mu.Unlock()
		return fmt.Errorf("runtime: no destination %q", cacheID)
	}
	var sender *groupWorker // a group of its own's, which exits with it
	if victim.group != nil && victim.group != s.group {
		sender = victim.worker
	}
	s.leaveLocked(victim)
	s.sessions = append(s.sessions[:idx], s.sessions[idx+1:]...)
	if s.reb != nil {
		s.reb.Forget(cacheID)
	}
	s.reallocateLocked()
	s.mu.Unlock()
	close(victim.stop)
	// Unblock the loop and wait for it to exit. The connection must be
	// closed to release a back-pressured send (or the feedback read), and
	// it must be re-read each attempt: a redial that was already past its
	// stop check can swap in a fresh connection after we snapshot — closing
	// only the stale one would leave the loop wedged in a send on the new
	// one and this wait hanging forever. Close is idempotent on every
	// provided transport, so re-closing is harmless.
	for {
		s.mu.Lock()
		conn := victim.dest.Conn
		s.mu.Unlock()
		conn.Close()
		select {
		case <-victim.done:
			if sender != nil {
				<-sender.done // its sends fail fast on the closed connection
			}
			return nil
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// SetBandwidth replaces the total send budget at runtime and re-divides it
// across the live sessions at their current weights. Non-positive values
// are ignored.
func (s *Source) SetBandwidth(b float64) {
	if b <= 0 {
		return
	}
	s.mu.Lock()
	s.bandwidth = b
	s.reallocateLocked()
	s.mu.Unlock()
}

// Bandwidth returns the current total send budget.
func (s *Source) Bandwidth() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bandwidth
}

// LiveDestinations counts sessions that can still deliver — everything not
// permanently ended (a redialing session counts: its peer is expected
// back). A relay consults this to skip re-export work entirely when nothing
// downstream would receive it.
func (s *Source) LiveDestinations() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, ss := range s.sessions {
		if !ss.ended {
			n++
		}
	}
	return n
}

// consumer is one claimant on the send budget: the shared group (ss nil), or
// another live destination, with its group (nil for a poll-only one).
type consumer struct {
	alloc.Consumer
	ss *syncSession
	g  *SessionGroup
}

// consumersLocked lists the live destinations as the rebalancer's consumers:
// the shared group once, at groupConsumerID with its member count as base
// weight, so its members and the other destinations earn the same
// per-destination share; every other one at its CacheID and Weight. Ended
// sessions are stripped to rate zero on the way, so a dead session never
// holds share a live one could spend. Caller holds s.mu.
func (s *Source) consumersLocked() []consumer {
	cs := make([]consumer, 0, len(s.sessions)+1)
	for _, ss := range s.sessions {
		switch {
		case ss.ended:
			ss.rate, ss.weight = 0, 0
		case ss.group == nil || ss.group != s.group:
			cs = append(cs, consumer{alloc.Consumer{ID: ss.dest.CacheID, Base: ss.dest.Weight}, ss, ss.group})
		}
	}
	if g := s.group; g != nil && len(g.members) > 0 {
		cs = append(cs, consumer{alloc.Consumer{ID: groupConsumerID, Base: float64(len(g.members))}, nil, g})
	}
	return cs
}

// reallocateLocked re-divides the send budget across the consumers:
// effective weights come from the rebalancer's contribution scores when
// periodic re-allocation is enabled, from the static base weights otherwise.
// The shared group schedules at the PER-MEMBER rate — one scheduled refresh
// fans to all members, keeping total egress within the budget. Caller holds
// s.mu; a group accrues at its new rate from its next spend, a poll-only
// session from its next tick (see syncSession.loop).
func (s *Source) reallocateLocked() {
	cs := s.consumersLocked()
	ids, weights := make([]string, len(cs)), make([]float64, len(cs))
	for i, c := range cs {
		ids[i], weights[i] = c.ID, c.Base
	}
	if s.reb != nil {
		weights = s.reb.Weights(ids, weights)
	}
	if s.group != nil {
		s.group.rate = 0 // unless it is one of cs
	}
	for i, rate := range alloc.Proportional(s.bandwidth, weights) {
		if c := cs[i]; c.ss != nil {
			c.ss.rate, c.ss.weight = rate, weights[i]
			if c.g != nil {
				c.g.rate = rate
			}
			continue
		}
		g := s.group
		g.rate = rate / float64(len(g.members))
		for _, m := range g.members {
			m.rate, m.weight = g.rate, 1
		}
	}
}

// rebalanceLoop is the periodic re-allocation pass (SourceConfig.Rebalance):
// each interval it folds every consumer's observation window — feedback
// messages heard and outstanding divergence — into the rebalancer's
// contribution scores and re-divides the budget by the smoothed weights.
func (s *Source) rebalanceLoop() {
	ticker := time.NewTicker(s.cfg.Rebalance)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.rebalanceOnce()
		}
	}
}

// rebalanceOnce runs one re-allocation pass (exported to tests via the
// loop's ticker; the daemons only ever drive it periodically).
func (s *Source) rebalanceOnce() {
	s.mu.Lock()
	cs := s.consumersLocked()
	cons := make([]alloc.Consumer, len(cs))
	for i, c := range cs {
		// A group's demand is maintained incrementally by observe and commit
		// (both already under s.mu), so this pass is O(destinations) instead
		// of O(destinations × objects) under the send-path mutex. A
		// destination whose connection is down (redialing) reports zero
		// demand: un-spendable share allocated to a dead pipe would starve the
		// destinations that can deliver. A poll-only session hears no
		// feedback and has no demand.
		if g := c.g; g != nil {
			c.Feedbacks, g.windowFb = float64(g.feedbacks-g.windowFb), g.feedbacks
			if c.ss == nil || !c.ss.redialing {
				c.Demand = g.demand
			}
		}
		cons[i] = c.Consumer
	}
	if len(cons) > 0 {
		s.reb.Observe(cons)
		s.reallocateLocked()
	}
	s.rebalances++
	s.mu.Unlock()
}

// now returns seconds since the source started (the protocol time base).
//
// Protocol time that feeds a divergence tracker must be read while holding
// s.mu: the trackers require time not to run backwards, and a reading taken
// before waiting for the lock can be older than one a competing goroutine
// took — and committed to the same object — while this one waited.
func (s *Source) now() float64 {
	return s.cfg.Now().Sub(s.started).Seconds()
}

// clock is now plus the same instant as wall-clock nanoseconds (the
// last-modified and SentUnix stamps), from a single clock read.
func (s *Source) clock() (now float64, unix int64) {
	t := s.cfg.Now()
	return t.Sub(s.started).Seconds(), t.UnixNano()
}

// originAxisLocked returns the origin-axis (epoch, version) an outgoing
// refresh for o would carry: the preserved origin axis for a re-exported
// value, this source's own incarnation and version counter for a locally
// produced one. Held-version feedback is compared against exactly this
// axis. The key is prov.Epoch, not prov.Origin — mirroring
// wire.Refresh.OriginAxis, which receivers (and therefore their acks)
// fall back to the sender axis for when OriginEpoch is zero; keying the
// two sides differently would let a Provenance with Origin set but no
// epoch (a legal UpdateFrom call) compare acks across mismatched axes
// and permanently held-skip the object. Caller holds s.mu.
func (s *Source) originAxisLocked(o *objState) (int64, uint64) {
	if p := s.order.prov(o.key); p.Epoch != 0 {
		return p.Epoch, p.Version
	}
	return s.started.UnixNano(), o.version
}

// Update records a new value for a locally produced object, recomputing its
// refresh priority in every sync session.
func (s *Source) Update(objectID string, value float64) {
	s.UpdateFrom(objectID, value, Provenance{})
}

// UpdateFrom records a new value that originated on another node; prov is
// stamped onto outgoing refreshes. A zero Provenance is exactly Update — a
// locally produced value. Relays use this to re-export applied refreshes so
// downstream tiers can attribute them and detect loops.
func (s *Source) UpdateFrom(objectID string, value float64, prov Provenance) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now, unix := s.clock()
	s.updateLocked(objectID, value, prov, now, unix)
	for _, g := range s.groups {
		g.wakeLocked(now)
	}
}

// RelayedUpdate is one element of an UpdateFromAll batch.
type RelayedUpdate struct {
	ObjectID string
	Value    float64
	Prov     Provenance
}

// UpdateFromAll records a batch of re-exported values under a single lock
// acquisition. This is the relay hot path: one applied batch becomes one
// lock round-trip instead of one per refresh, so the cache's dispatcher does
// not contend for the source mutex message by message.
func (s *Source) UpdateFromAll(updates []RelayedUpdate) {
	if len(updates) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now, unix := s.clock()
	for i := range updates {
		u := &updates[i]
		s.updateLocked(u.ObjectID, u.Value, u.Prov, now, unix)
	}
	// Once per call, not per element: what the batch queued may have
	// completed a frame's worth of traffic, which the flusher then sends
	// without waiting for its tick.
	for _, g := range s.groups {
		g.wakeLocked(now)
	}
}

// objLocked resolves an object id to its state, or nil when the source has
// not seen it yet, and returns the id's hash for a newObjLocked that follows.
// Caller holds s.mu.
func (s *Source) objLocked(objectID string) (*objState, uint64) {
	h := hashID(objectID)
	p := s.objs.probe(h)
	for {
		k := s.objs.next(&p)
		if k < 0 {
			return nil, h
		}
		if o := s.order.at(int(k)); o.id == objectID {
			return o, h
		}
	}
}

// newObjLocked registers a first-seen object: its canonical state, its queue
// key, and a zeroed per-object record in every group. Held-version acks that
// arrived before the object existed here (a cache acking ahead of a relay's
// snapshot re-export) are folded in now, so the observe that follows already
// sees them. Caller holds s.mu.
func (s *Source) newObjLocked(objectID string, h uint64, now float64) *objState {
	o := s.order.add(objectID, now)
	s.objs.insert(h, o.key)
	if s.cfg.Policy.CacheDriven() {
		return o
	}
	for _, g := range s.groups {
		g.objs.grow(s.order.n)
	}
	for _, ss := range s.sessions {
		if h, ok := ss.heldPending[objectID]; ok && !ss.ended {
			delete(ss.heldPending, objectID)
			ss.raiseHeldLocked(int(o.key), heldAxis{h.Epoch, h.Version})
		}
	}
	return o
}

// advanceLocked moves object o's canonical state to a new value: one more
// version on this source's own axis, stamped with where the value came from.
// Caller holds s.mu.
func (s *Source) advanceLocked(o *objState, value float64, prov Provenance, unix int64) {
	o.value = value
	o.version++
	o.updates++
	s.order.setProv(o.key, &prov)
	o.lastUnix = unix
	s.updates++
}

// updateLocked is the shared body of Update/UpdateFrom/UpdateFromAll; now and
// unix are one reading of the clock, taken under the lock. Caller holds s.mu.
func (s *Source) updateLocked(objectID string, value float64, prov Provenance, now float64, unix int64) {
	o, h := s.objLocked(objectID)
	if o == nil {
		o = s.newObjLocked(objectID, h, now)
	}
	s.advanceLocked(o, value, prov, unix)
	// One observe per group, the shared group for its whole cohort: the
	// O(1)-per-update dispatch, allocation-free in steady state. Under a
	// cache-driven policy there is no group — the caches decide what to ask
	// for and when, so there is nothing to observe or rank here.
	for _, g := range s.groups {
		g.observeLocked(o, now)
	}
}

// Stats returns a snapshot of protocol counters, aggregated and per
// session.
func (s *Source) Stats() SourceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SourceStats{
		Policy:     s.cfg.Policy.String(),
		Updates:    s.updates,
		Rebalances: s.rebalances,
		Sessions:   make([]SessionStats, 0, len(s.sessions)),
	}
	live := 0
	for _, ss := range s.sessions {
		sess := ss.statsLocked()
		st.Refreshes += sess.Refreshes
		st.Feedbacks += sess.Feedbacks
		st.SendErrors += sess.SendErrors
		st.PollsAnswered += sess.PollsAnswered
		st.PollOmits += sess.PollOmits
		if !sess.Ended {
			// An ended session has left its group: nothing it still owes
			// will drain (historical counters above still aggregate — those
			// sends happened). A shared-group member's Pending is its dirty
			// set and its threshold the group's: both are folded in once
			// below.
			st.Pending += sess.Pending
			if ss.group != nil && !sess.Grouped {
				st.Threshold += sess.Threshold
				live++
			}
		}
		st.Sessions = append(st.Sessions, sess)
	}
	if s.group != nil && len(s.group.members) > 0 {
		gs := s.group.statsLocked()
		st.Group = &gs
		st.Pending += gs.Pending
		st.Threshold += gs.Threshold
		live++
	}
	if live > 0 {
		st.Threshold /= float64(live)
	}
	return st
}

// Close stops the node and all of its connections, returning the first
// connection-close error. Connections are closed before waiting for the
// session loops and the sender workers: either can be blocked inside a
// back-pressured send (the paper's network queueing), and only tearing the
// connection down unblocks it — otherwise one stalled cache would wedge
// shutdown of the whole fan-out source.
func (s *Source) Close() error {
	select {
	case <-s.stop:
		return nil
	default:
	}
	close(s.stop)
	// Snapshot sessions and connections under the lock: a redial may swap
	// a session's connection, and AddDestination/RemoveDestination may
	// reshape the session set concurrently. Any connection installed after
	// s.stop closed is cleaned up by the redialing session itself; a
	// session removed concurrently is waited on by its remover.
	s.mu.Lock()
	sessions := append([]*syncSession(nil), s.sessions...)
	conns := make([]transport.SourceConn, len(sessions))
	workers := slices.Clone(s.workers)
	for i, ss := range sessions {
		conns[i] = ss.dest.Conn
		if ss.worker != nil { // a pool worker again is harmless
			workers = append(workers, ss.worker)
		}
	}
	s.mu.Unlock()
	var err error
	for _, conn := range conns {
		if cerr := conn.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	for _, ss := range sessions {
		<-ss.done
	}
	if s.flushed != nil {
		// After the flusher exits (it watches s.stop) nothing enqueues to
		// the workers; they drain their remaining items — sends fail fast
		// on the closed connections — so every shared-frame reference is
		// released before Close returns.
		<-s.flushed
		for _, w := range workers {
			w.close()
		}
		for _, w := range workers {
			<-w.done
		}
	}
	return err
}
