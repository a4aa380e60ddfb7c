// Package runtime is a live, goroutine-based implementation of the paper's
// cooperative synchronization protocol, reusing the pure protocol logic of
// internal/core. A Cache node consumes refresh batches under a token-bucket
// processing budget (the cache-side bandwidth) and spends surplus budget on
// positive feedback to the highest-threshold sources; Source nodes watch
// locally updated objects, rank them with the Section 3 priority functions,
// and send those above their adaptive local threshold.
//
// Wall-clock time replaces the simulator's virtual clock; everything else —
// the α/ω/β threshold rules, piggybacked thresholds, surplus-driven feedback
// — is the same code path exercised by the experiments.
//
// # Fan-out
//
// A Source can synchronize several caches at once (NewFanoutSource): each
// destination is a group of its own — its own divergence trackers, priority
// queue, threshold engine and send budget — or a member of the one shared
// group, and the source-side bandwidth is divided across them with the
// Section 7 share allocation (internal/alloc). Groups converge
// independently: a starved cache throttles only its own group's threshold
// while well-provisioned caches keep receiving at full rate. Feedback is
// attributed per connection, and caches stamp their identity on it
// (wire.Feedback.CacheID) so sessions can report who is on the other end.
// See docs/algorithm-specifications.md §7.
//
// # Hierarchy
//
// A Node composes both into a middle tier: a Cache facing its
// upstream whose applied refreshes are re-exported (via the OnApply hook
// and Source.UpdateFrom) as updates to a fan-out Source facing its
// children, with provenance (wire.Refresh.Origin/Hops), loop-avoidance and
// a hop ceiling. Divergence accounting composes per hop; see
// docs/algorithm-specifications.md §8.
//
// # One store, one writer
//
// A cache is one dispatcher goroutine writing one store under one lock, the
// one bandwidth-limited server of the paper's model. The dispatcher owns the
// protocol state — the token-bucket budget, the per-source threshold
// tracker, feedback targeting and, under a polling policy, the poll
// scheduler — and applies every pushed batch and every poll reply itself,
// taking the write lock once per batch. Readers (Get, Len, Stats, Status,
// snapshots) take the read lock. The apply rate is folded into a gauge once
// per second for the status endpoint.
//
// The store is an open-addressed id index (idIndex) over a dense slab of
// 64-byte slots, whose sender, origin and relay path live in one immutable
// route record shared by every slot that arrived the same way. The dispatcher
// hashes a refresh's id once, probes the index with it, then works on the
// slot (overwritten in place). A batch is applied as one pass over the
// decoded slice, and pending held-version acks are sets of slab indexes whose
// payload is read when they are sent — the steady-state apply path allocates
// nothing.
//
// # Back-pressure
//
// Every stage is bounded: transport batch channel → dispatcher (gated by
// the token bucket), which applies a batch before it reads the next. When
// the apply path falls behind, the dispatcher stops reading, which fills the
// transport channel and stalls the sources' SendRefresh calls — the network
// queueing of the paper's model. A feedback or poll write that blocks stalls
// intake the same way.
//
// docs/algorithm-specifications.md §6 specifies the store/batch semantics
// and the full back-pressure chain.
package runtime

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bestsync/internal/core"
	"bestsync/internal/transport"
	"bestsync/internal/wire"
	"bestsync/internal/wire/codec"
)

// CacheConfig configures a live cache node.
type CacheConfig struct {
	// ID identifies this cache to its sources: it is stamped on outgoing
	// feedback (wire.Feedback.CacheID) so fan-out sources can attribute
	// feedback to the right sync session, and compared against the
	// advisory CacheID on incoming refreshes (mismatches are applied but
	// counted in CacheStats.Misrouted). Default "cache".
	ID string
	// Bandwidth is the refresh-processing budget in messages/second.
	Bandwidth float64
	// Tick is the protocol interval (default 100 ms): budget accrual,
	// surplus detection and feedback all run once per tick.
	Tick time.Duration
	// Params tunes the threshold algorithm; zero means paper defaults.
	Params core.Params
	// Policy selects the synchronization policy this cache runs. The
	// default, PolicyPush, is the paper's source-cooperative protocol: the
	// cache consumes pushed refreshes and spends surplus budget on
	// feedback. The cache-driven policies (ideal/cgm1/cgm2) instead start a
	// poll scheduler that discovers the object universe from connected
	// sources and polls each object at its cgm.OptimalAllocation frequency
	// under the same Bandwidth, counted in messages (surplus feedback is
	// disabled — the CGM baseline has none, and unaccounted feedback would
	// skew equal-budget comparisons). A polling cache applies any pushed
	// batch it is sent through the same path as its poll replies.
	// Polling policies require the endpoint to implement
	// transport.PollEndpoint (both provided transports do); NewCache panics
	// otherwise.
	Policy Policy
	// Poll tunes the cache-driven policies; ignored under PolicyPush.
	Poll PollConfig
	// OnApply, when non-nil, is called once per batch with every refresh
	// of it that was actually installed into the store (stale drops are
	// excluded), outside the cache lock, on the dispatcher — for pushed and
	// polled batches alike. Batches are applied one at a time, each reported
	// before the next is applied, so refreshes for the same object are
	// delivered in apply order — and a hook must not wait for the cache to
	// apply another batch. The slice is the cache's own buffer,
	// overwritten by the next batch, so it is valid only for the duration of
	// the call: copy the refreshes to keep them (their strings and Via paths
	// stay valid). This is the re-export hook a Node uses to turn applied
	// refreshes into updates for its own downstream tier.
	OnApply func([]wire.Refresh)
	// OnForward, when non-nil, replaces OnApply for batches that arrive
	// with a retained wire frame (transport.InboundBatch.Frame): once the
	// batch is applied, it is called exactly once with the batch's
	// refreshes, the retained frame, and a keep mask aligned 1:1 with both
	// (keep[i] is true iff rs[i] was actually installed — stale drops and
	// Reject hits are false). Ownership of the frame reference transfers to
	// the hook, which must Release it. rs is the decoded batch itself,
	// handed back to the codec for the next frame as soon as the hook
	// returns, and keep is reused too: both are valid only for the duration
	// of the call, and the hook copies what it keeps. Like OnApply it runs
	// on the dispatcher outside the cache lock, in apply order. Frameless
	// batches are unaffected and keep the OnApply contract. This is the
	// splice-forwarding entry: a Node uses it to re-export the inbound bytes
	// without re-encoding.
	OnForward func(rs []wire.Refresh, frame *codec.Frame, keep []bool)
	// Reject, when non-nil, is consulted by the dispatcher for every
	// incoming refresh before it reaches the apply path; returning true
	// drops it (counted in CacheStats.Rejected). The piggybacked threshold
	// is still observed — rejection is about the payload, not the
	// protocol. A Node uses this to drop refreshes that crossed a
	// topology cycle: applying one would let the cycle peer's re-issued
	// epoch capture the entry and shadow direct refreshes.
	Reject func(wire.Refresh) bool
	// Now overrides the clock (tests); defaults to time.Now.
	Now func() time.Time
}

// Entry is one cached object copy. Source is the node the refresh arrived
// from; in a relay hierarchy Origin names the node the value was first
// produced on, Hops the relay tiers it crossed, and Via the relay path it
// took (zero/empty for a copy received directly from its origin). Keeping
// Via on the entry lets a relay restored from a snapshot re-export with the
// original path intact, so the loop guard still holds across restarts.
// OriginEpoch/OriginVersion preserve the origin's own version axis for
// relayed copies (zero when direct — Epoch/Version then ARE the origin
// axis); they are what makes a copy comparable to a re-export from a
// DIFFERENT incarnation of the same relay, which re-issues Epoch/Version.
//
// Refreshed is the wall-clock apply time to the nanosecond, with no
// monotonic reading (the zero Time when unknown). Via is shared with every
// entry that arrived over the same path and is read-only, as
// wire.Refresh.Via is.
type Entry struct {
	Value         float64
	Version       uint64
	Epoch         int64 // source incarnation the version belongs to
	Source        string
	Origin        string
	OriginEpoch   int64
	OriginVersion uint64
	Hops          int
	Via           []string
	Refreshed     time.Time
}

// OriginID returns the node the cached value was first produced on.
func (e Entry) OriginID() string {
	if e.Origin != "" {
		return e.Origin
	}
	return e.Source
}

// OriginAxis returns the (epoch, version) the value had at its origin —
// the explicit origin-axis fields for a relayed copy, the sender's own
// Epoch/Version for a direct one (mirrors wire.Refresh.OriginAxis).
func (e Entry) OriginAxis() (epoch int64, version uint64) {
	if e.OriginEpoch != 0 {
		return e.OriginEpoch, e.OriginVersion
	}
	return e.Epoch, e.Version
}

// CacheStats counts protocol activity. The poll counters are zero under the
// push policy; Refreshes counts installed values under every policy (a poll
// reply item that changed the store counts exactly like an applied push
// refresh).
type CacheStats struct {
	Refreshes int
	Feedbacks int
	Sources   int
	Stale     int // refreshes dropped as stale duplicates or old epochs
	Misrouted int // refreshes whose advisory CacheID named another cache
	Rejected  int // refreshes dropped by the CacheConfig.Reject filter
	// PeerServed counts installed refreshes that reached this cache through
	// an intermediary rather than straight from their origin (the applied
	// copy's OriginID differs from the sender) — lateral serving in a mesh,
	// or relay tiers in a tree. Zero in a star topology.
	PeerServed  int
	Divergence  float64 // cumulative |Δvalue| absorbed by applied refreshes
	Polls       int     // poll request messages sent (cache-driven policies)
	PollReplies int     // poll-reply messages received (per targeted item; one per discovery listing)
	Resolves    int     // completed cgm allocation solves
}

// routeScratch is route's working set, reused from batch to batch on the
// dispatcher: each refresh's id hash and the word in its home index slot,
// aligned with the batch; the keep mask, set for every refresh Reject let
// through and then left set for those installed; and the applied refreshes
// OnApply is handed.
type routeScratch struct {
	hs, ws  []uint64
	keep    []bool
	applied []wire.Refresh
}

// ready sizes the scratch for a batch of n refreshes, the keep mask cleared.
func (sc *routeScratch) ready(n int) {
	if cap(sc.hs) < n {
		sc.hs, sc.ws, sc.keep = make([]uint64, n), make([]uint64, n), make([]bool, n)
	}
	sc.hs, sc.ws, sc.keep = sc.hs[:n], sc.ws[:n], sc.keep[:n]
	clear(sc.keep)
}

// slabChunk is the number of slots per slab chunk. Chunks are allocated whole
// and never move, so growing the store copies nothing and a slot pointer
// stays valid for as long as the cache lock is held. 512 slots of 64 B are
// exactly 32 KiB: the chunk takes the allocator's large-object path (whole
// pages, no type header), where 64 slots would pay a header and land in the
// 4 864 B size class.
const (
	slabShift = 9
	slabChunk = 1 << slabShift
)

// slot is one slab element, 64 B: the object id, the per-value fields of its
// Entry, and the route it arrived by. Refreshed is kept as Unix nanoseconds,
// 0 for the zero Time.
type slot struct {
	id            string
	value         float64
	version       uint64
	epoch         int64
	originVersion uint64
	refreshed     int64
	rt            *route
}

// route is the part of an Entry that depends only on how the value arrived:
// sender, origin, origin incarnation and relay path. It is never mutated, so
// every slot that arrived the same way points to one record. Nothing indexes
// routes: one no slot points to is garbage, so their memory is bounded by the
// live slots however many distinct paths a sender sprays.
type route struct {
	sender      string
	origin      string // "" when direct
	originEpoch int64
	hops        int
	via         []string
}

// is reports whether rt is the route (sender, origin, originEpoch, hops, via).
// Via is compared by content: equal paths rarely share a backing array.
func (rt *route) is(sender, origin string, originEpoch int64, hops int, via []string) bool {
	return rt != nil && rt.sender == sender && rt.origin == origin &&
		rt.originEpoch == originEpoch && rt.hops == hops &&
		(rt.via == nil) == (via == nil) && slices.Equal(rt.via, via)
}

// entry reads the slot back into *e, every field overwritten. It writes in
// place rather than returning an Entry: building the 128 B value and copying
// it out made Get a fifth slower.
func (s *slot) entry(e *Entry) {
	rt := s.rt
	e.Value, e.Version, e.Epoch = s.value, s.version, s.epoch
	e.Source, e.Origin, e.OriginEpoch, e.OriginVersion = rt.sender, rt.origin, rt.originEpoch, s.originVersion
	e.Hops, e.Via = rt.hops, rt.via
	e.Refreshed = time.Time{}
	if s.refreshed != 0 {
		e.Refreshed = time.Unix(0, s.refreshed)
	}
}

// originID mirrors Entry.OriginID.
func (s *slot) originID() string {
	if s.rt.origin != "" {
		return s.rt.origin
	}
	return s.rt.sender
}

// originAxis mirrors Entry.OriginAxis.
func (s *slot) originAxis() (epoch int64, version uint64) {
	if s.rt.originEpoch != 0 {
		return s.rt.originEpoch, s.originVersion
	}
	return s.epoch, s.version
}

// unixNano is t as a slot stores it: Unix nanoseconds, 0 for the zero Time
// (whose UnixNano is undefined).
func unixNano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// routeMemo is the number of recently resolved routes the store, and a
// Source's provenance column, remembers.
const routeMemo = 4

// ackSet is the pending held-version acknowledgements toward one sender: the
// slab indexes whose entry the sender should hear about. Only the index is
// recorded; the payload is read from the entry when the ack is drained.
type ackSet struct {
	sender string
	keySet
}

// store is the cache's table: an id index over a dense slab of entries that
// are mutated in place, so a refresh for a known object costs one probe of a
// table word and one id comparison. It is guarded by Cache.mu.
type store struct {
	index idIndex // object id → slab index, confirmed against slot.id
	slab  []*[slabChunk]slot
	n     int32 // slots in use
	// owed holds the pending held-version acknowledgements per sender: the
	// entries held on to while dropping that sender's stale copies. The
	// dispatcher's surplus-feedback pass drains them onto outgoing
	// wire.Feedback.Held (bounded per message), so senders learn what this
	// cache already holds and skip the rest. A cache hears from few senders
	// and a batch comes from one, so the list is scanned, most recent sender
	// first (lastOwed).
	owed     []ackSet
	lastOwed int
	// routes remembers the most recently resolved routes, so an object that
	// changed route, or a first insertion, usually finds its record without
	// allocating. Replaced round-robin from nextRoute.
	routes    [routeMemo]*route
	nextRoute int
}

// at returns the slot at slab index i.
func (st *store) at(i int32) *slot {
	return &st.slab[i>>slabShift][i&(slabChunk-1)]
}

// routeFor returns the shared route (sender, origin, originEpoch, hops, via):
// cur when it already is that route (an object refreshed the way it was last
// time), else a match in the store's memo, else a new record that replaces the
// memo's oldest. Caller holds the write lock.
func (st *store) routeFor(cur *route, sender, origin string, originEpoch int64, hops int, via []string) *route {
	if cur.is(sender, origin, originEpoch, hops, via) {
		return cur
	}
	for _, rt := range st.routes {
		if rt.is(sender, origin, originEpoch, hops, via) {
			return rt
		}
	}
	rt := &route{sender: sender, origin: origin, originEpoch: originEpoch, hops: hops, via: via}
	st.routes[st.nextRoute] = rt
	st.nextRoute = (st.nextRoute + 1) % routeMemo
	return rt
}

// setEntry stores e, field for field, in the slot at slab index i. Caller
// holds the write lock.
func (st *store) setEntry(i int32, e Entry) {
	s := st.at(i)
	s.value, s.version, s.epoch, s.originVersion = e.Value, e.Version, e.Epoch, e.OriginVersion
	s.refreshed = unixNano(e.Refreshed)
	s.rt = st.routeFor(s.rt, e.Source, e.Origin, e.OriginEpoch, e.Hops, e.Via)
}

// find returns the slab index of objectID, whose hashID is h, or -1. Caller
// holds the lock.
func (st *store) find(h uint64, objectID string) int32 {
	p := st.index.probe(h)
	for {
		if i := st.index.next(&p); i < 0 || st.at(i).id == objectID {
			return i
		}
	}
}

// lookup is find with the word in h's home slot already loaded as w (see
// Cache.route): a word whose tag matches and whose slot holds objectID is the
// answer, and anything else walks the probe, so a word loaded before the
// batch inserted the id or grew the table is never trusted to say "absent".
// Caller holds the lock.
func (st *store) lookup(w, h uint64, objectID string) int32 {
	if w != 0 && w&^idLow == h&^idLow {
		if i := int32(w&idLow) - 1; st.at(i).id == objectID {
			return i
		}
	}
	return st.find(h, objectID)
}

// insert adds a slot for a new object id whose hashID is h and returns its
// slab index. Caller holds the write lock.
func (st *store) insert(h uint64, objectID string) int32 {
	i := st.n
	if int(i>>slabShift) == len(st.slab) {
		st.slab = append(st.slab, new([slabChunk]slot))
	}
	st.n++
	st.index.insert(h, i)
	st.at(i).id = objectID
	return i
}

// Cache is a live cache node.
type Cache struct {
	cfg CacheConfig
	ep  transport.CacheEndpoint
	ps  *pollScheduler // non-nil for cache-driven policies; runs on the dispatcher

	// mu is the cache's one lock. The dispatcher takes the write lock once
	// per batch, and LoadSnapshot once per record; readers take the read
	// lock.
	mu        sync.RWMutex
	store     store
	tracker   *core.Cache
	srcIdx    map[string]int
	srcIDs    []string
	stats     CacheStats // every counter but Sources, which Stats derives
	applyRate float64    // refreshes applied per second, last merge window
	lastMerge mergeMark

	// Owned by the dispatcher: route's working set, and the down-send
	// buffers of sendFeedback — an endpoint copies what it keeps, so each is
	// reused from call to call.
	scratch routeScratch
	fbIDs   []string
	acks    []wire.HeldVersion

	// bw is the live processing budget in messages/second (float64 bits);
	// cfg.Bandwidth is only its initial value. The loop re-reads it every
	// tick, so SetBandwidth (a relay shifting budget between its faces)
	// takes effect within one tick.
	bw atomic.Uint64

	stop chan struct{}
	done chan struct{}
}

// mergeMark remembers the last apply-rate merge.
type mergeMark struct {
	at        time.Time
	refreshes int
}

// NewCache starts a cache node consuming from ep. Close the cache (not the
// endpoint) to shut down.
func NewCache(cfg CacheConfig, ep transport.CacheEndpoint) *Cache {
	if cfg.ID == "" {
		cfg.ID = "cache"
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
	}
	c := &Cache{
		cfg:    cfg,
		ep:     ep,
		srcIdx: map[string]int{},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	c.lastMerge.at = cfg.Now()
	c.bw.Store(math.Float64bits(cfg.Bandwidth))
	if cfg.Policy.CacheDriven() {
		pe, ok := ep.(transport.PollEndpoint)
		if !ok {
			panic("runtime: a polling policy requires a transport.PollEndpoint (both provided transports implement it)")
		}
		c.ps = newPollScheduler(c, pe, cfg.Poll)
	}
	go c.loop()
	return c
}

// Get returns the cached copy of an object.
func (c *Cache) Get(objectID string) (e Entry, ok bool) {
	h := hashID(objectID)
	c.mu.RLock()
	if i := c.store.find(h, objectID); i >= 0 {
		c.store.at(i).entry(&e)
		ok = true
	}
	c.mu.RUnlock()
	return e, ok
}

// Len returns the number of cached objects.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return int(c.store.n)
}

// Stats snapshots the protocol counters.
func (c *Cache) Stats() CacheStats {
	c.mu.RLock()
	s := c.stats
	s.Sources = len(c.srcIdx)
	c.mu.RUnlock()
	if c.ps != nil {
		// The source intern table is push machinery (fed by piggybacked
		// thresholds); under a poll policy the connected set is the
		// meaningful count.
		s.Sources = len(c.ep.Sources())
	}
	return s
}

// Policy returns the synchronization policy this cache runs.
func (c *Cache) Policy() Policy { return c.cfg.Policy }

// ID returns the cache's configured identifier.
func (c *Cache) ID() string { return c.cfg.ID }

// ApplyRate returns the refresh-apply throughput (messages/second) measured
// over the most recent periodic merge window.
func (c *Cache) ApplyRate() float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.applyRate
}

// Bandwidth returns the current processing budget in messages/second.
func (c *Cache) Bandwidth() float64 {
	return math.Float64frombits(c.bw.Load())
}

// SetBandwidth replaces the processing budget at runtime; the dispatcher
// picks the new rate up on its next tick. Non-positive values are ignored.
// A relay uses this to shift budget between its cache face and its child
// face from observed backlog.
func (c *Cache) SetBandwidth(b float64) {
	if b > 0 {
		c.bw.Store(math.Float64bits(b))
	}
}

// backlog approximates the refreshes accepted but not yet applied: the
// batches waiting at the intake channel, counted as one each (the channel
// holds batches, not messages, so this is a floor). It is the cache face's
// observable demand signal for a relay's up/down budget split.
func (c *Cache) backlog() int {
	return len(c.ep.Batches())
}

// Close stops the dispatcher, and with it the poll scheduler.
func (c *Cache) Close() error {
	select {
	case <-c.stop:
		return nil
	default:
	}
	close(c.stop)
	<-c.done
	return nil
}

// sourceIndex interns a source id for the core threshold tracker. Caller
// holds c.mu.
func (c *Cache) sourceIndex(id string) int {
	if idx, ok := c.srcIdx[id]; ok {
		return idx
	}
	idx := len(c.srcIDs)
	c.srcIdx[id] = idx
	c.srcIDs = append(c.srcIDs, id)
	// Re-size the tracker preserving known thresholds (they re-learn from
	// the next piggybacks, which arrive with every refresh) and warm-up
	// greeting counts (a permanently silent peer link must not re-earn
	// warm-up feedback priority every time a new source connects).
	fresh := core.NewCache(len(c.srcIDs))
	if c.tracker != nil {
		for i := 0; i < idx; i++ {
			if th, heard := c.tracker.KnownThreshold(i); heard {
				fresh.ObserveThreshold(i, th)
			} else {
				fresh.SetGreets(i, c.tracker.Greets(i))
			}
		}
	}
	c.tracker = fresh
	return idx
}

// mergeInterval paces the apply-rate gauge served by Status.
const mergeInterval = time.Second

// tokenBurst is the token-bucket capacity for a budget of rate msgs/second
// at the given tick: two ticks' accrual, floored at 2 whole messages. The
// floor matters — with capacity below 1 + rate·tick, the cap truncates the
// fractional remainder on every accrual cycle, silently taxing any budget
// of 0.5–1 messages per tick down to one send every two ticks instead of
// its allocated rate.
func tokenBurst(rate float64, tick time.Duration) float64 {
	b := rate * tick.Seconds() * 2
	if b < 2 {
		return 2
	}
	return b
}

// tokenBucket is the message allowance every paced loop of this package
// spends from: the cache dispatcher, the poll scheduler, each session group
// and each poll-only sync session. Spending is plain arithmetic on tokens — an
// over-spend may push it negative, which simply delays the next spend until
// amortized.
type tokenBucket struct{ tokens float64 }

// accrue adds dt seconds of allowance at rate msgs/second, capped at
// tokenBurst. Callers pass their LIVE rate on every call — shares and
// bandwidths move at runtime — so the cap follows it: an increase raises the
// burst on the next accrual and a decrease caps tokens already accrued at the
// old, higher rate.
func (b *tokenBucket) accrue(rate, dt float64, tick time.Duration) {
	b.tokens += rate * dt
	if burst := tokenBurst(rate, tick); b.tokens > burst {
		b.tokens = burst
	}
}

func (c *Cache) loop() {
	defer close(c.done)
	ticker := time.NewTicker(c.cfg.Tick)
	defer ticker.Stop()
	var budget tokenBucket
	batches := c.ep.Batches()
	var replies <-chan wire.PollReply
	if c.ps != nil {
		replies = c.ps.pe.Replies()
	}
	for {
		// Gate the intake on the token bucket: with no budget left the
		// dispatcher stops reading, the transport channel fills, and
		// sources feel back-pressure.
		in := batches
		if budget.tokens < 1 {
			in = nil
		}
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			// Re-read the budget each tick: SetBandwidth may have moved it
			// (a relay re-splitting its face budgets).
			budget.accrue(c.Bandwidth(), c.cfg.Tick.Seconds(), c.cfg.Tick)
			// Surplus → positive feedback to highest-threshold sources,
			// but only when truly drained: nothing waiting at the intake
			// (the dispatcher applies a batch before it reads the next). A
			// backlogged apply path must not advertise spare capacity.
			// Cache-driven policies send none: feedback is push machinery,
			// the CGM baseline has no analogue, and unaccounted feedback
			// messages would skew equal-budget policy comparisons (the
			// poll scheduler owns the whole message budget there).
			if !c.cfg.Policy.CacheDriven() &&
				len(batches) == 0 && budget.tokens >= 1 {
				budget.tokens -= float64(c.sendFeedback(int(budget.tokens)))
			}
			c.maybeMergeStats()
			if c.ps != nil {
				c.ps.tick()
			}
		case r, ok := <-replies:
			if !ok {
				replies = nil
				continue
			}
			c.ps.budget.tokens -= c.ps.processReply(r, c.ps.now())
			codec.ReleaseReply(&r)
		case b, ok := <-in:
			if !ok {
				batches = nil // endpoint closed; keep serving reads
				continue
			}
			// A batch spends one budget unit per refresh; a large batch
			// may push the bucket negative, which simply delays the next
			// intake — the same accounting a message-at-a-time drain
			// converges to.
			budget.tokens -= float64(len(b.Refreshes))
			c.dispatch(b)
		}
	}
}

// dispatch applies a pushed batch, observing its piggybacked thresholds,
// then hands the decoded batch back to its producer.
func (c *Cache) dispatch(b transport.InboundBatch) {
	frame := b.Frame
	if frame != nil && c.cfg.OnForward == nil {
		// Nobody downstream wants the bytes; drop the reference now rather
		// than thread it through the apply path.
		frame.Release()
		frame = nil
	}
	c.route(b.Refreshes, frame, true)
	b.Release()
}

// installPolled is the poll scheduler's entry into the apply path: the
// refreshes built from a poll reply's items take the same route — staleness
// guards, divergence accounting, OnApply — as pushed ones, but bypass the
// push-protocol observation (poll replies piggyback no thresholds and name
// no advisory destination). The Reject filter DOES apply: a poll reply from
// a lateral peer can carry a value this node is already on the path of (the
// peer answered before learning our identity), and installing it would
// re-circulate the cycle the intake guard exists to break. rs is the
// caller's again once this returns.
func (c *Cache) installPolled(rs []wire.Refresh) {
	c.route(rs, nil, false)
}

// observeLocked feeds a pushed batch's piggybacked thresholds to the tracker
// and counts advisory destination mismatches. Caller holds the write lock.
func (c *Cache) observeLocked(rs []wire.Refresh) {
	sender, idx := "", -1
	for i := range rs {
		r := &rs[i]
		if idx < 0 || r.SourceID != sender {
			// A batch comes from one sender: resolve its id once, not per
			// refresh.
			sender, idx = r.SourceID, c.sourceIndex(r.SourceID)
		}
		c.tracker.ObserveThreshold(idx, r.Threshold)
		if r.CacheID != "" && r.CacheID != c.cfg.ID {
			// Advisory destination mismatch: still applied (the connection
			// is authoritative) but counted for operators debugging fan-out
			// wiring.
			c.stats.Misrouted++
		}
	}
}

// route applies a batch on the dispatcher and reports what it installed; a
// pushed batch also has its thresholds observed (observeLocked). Reject runs
// first, outside the lock, and each id left is hashed once. The write lock is
// then taken once for the whole batch, which is applied in place over the one
// decoded slice — nothing is copied or compacted, so for a framed batch
// (frame != nil) index i of the keep mask, the refreshes and the retained
// frame's encoded items always line up. Ids are resolved in two passes:
// first every id's home index word, loads independent of each other whose
// misses the CPU overlaps, then each id from its word (store.lookup). Once the
// lock is released the applied refreshes go to OnApply, or the keep mask and
// the frame to OnForward, which owns the frame from then on; a batch with
// nothing left after Reject just releases its frame.
func (c *Cache) route(rs []wire.Refresh, frame *codec.Frame, pushed bool) {
	sc := &c.scratch
	sc.ready(len(rs))
	live := 0
	for i := range rs {
		if c.cfg.Reject != nil && c.cfg.Reject(rs[i]) {
			continue
		}
		sc.hs[i], sc.keep[i] = hashID(rs[i].ObjectID), true
		live++
	}
	now := unixNano(c.cfg.Now())
	report := frame == nil && c.cfg.OnApply != nil
	c.mu.Lock()
	if pushed {
		c.observeLocked(rs)
	}
	c.stats.Rejected += len(rs) - live
	for i := range rs {
		if sc.keep[i] {
			sc.ws[i] = c.store.index.home(sc.hs[i])
		}
	}
	for i := range rs {
		if !sc.keep[i] {
			continue
		}
		sc.keep[i] = c.applyLocked(&rs[i], sc.hs[i], sc.ws[i], now)
		if sc.keep[i] && report {
			sc.applied = append(sc.applied, rs[i])
		}
	}
	c.mu.Unlock()
	switch {
	case frame != nil && live == 0:
		frame.Release()
	case frame != nil:
		c.cfg.OnForward(rs, frame, sc.keep)
	case len(sc.applied) > 0:
		c.cfg.OnApply(sc.applied)
		sc.applied = sc.applied[:0]
	}
}

// applyLocked installs one refresh into the store, reporting whether it was
// applied (false = dropped as stale). The object id is resolved once, with
// its hash h and the home word w loaded for it (see store.lookup); an
// existing slot is overwritten in place, stamped with now (Unix
// nanoseconds). Caller holds the write lock.
func (c *Cache) applyLocked(r *wire.Refresh, h, w uint64, now int64) bool {
	st := &c.store
	i := st.lookup(w, h, r.ObjectID)
	ok := i >= 0
	if !ok {
		i = st.insert(h, r.ObjectID)
	}
	cur := st.at(i)
	// The (epoch, version) staleness guard is per sender: epochs from
	// different nodes are incomparable wall-clock starts, so comparing
	// them across senders would let one upstream's restart permanently
	// shadow a redundant upstream's live feed (a diamond topology). A
	// refresh from a different sender than the cached copy's is applied —
	// last writer wins across redundant feeds.
	if ok && r.SourceID == cur.rt.sender {
		if r.Epoch == cur.epoch && r.Version <= cur.version {
			// Stale or duplicate within the same source incarnation: an
			// equal (epoch, version) carries the identical value by
			// construction, so re-applying it would only inflate counters —
			// and, at a relay, re-broadcast it to every child. Reconnect
			// re-sends from a peer that never restarted land here.
			c.stats.Stale++
			c.recordAckLocked(r.SourceID, i)
			return false
		}
		if r.Epoch < cur.epoch {
			c.stats.Stale++ // message from a superseded incarnation
			c.recordAckLocked(r.SourceID, i)
			return false
		}
	}
	// The origin-axis staleness guard closes the gap the per-sender guard
	// cannot: a relay RESTART re-issues a fresh sender epoch, so its
	// re-export of a snapshot-age value would pass the guard above and
	// regress a cache that was ahead of the snapshot. The origin's own
	// (epoch, version) is preserved unchanged across hops and incarnations,
	// so for two copies from the SAME origin it is always comparable — an
	// at-or-behind copy is dropped no matter which sender incarnation
	// delivered it. Different origins stay last-writer-wins as before.
	if ok && r.OriginID() == cur.originID() {
		re, rv := r.OriginAxis()
		ce, cv := cur.originAxis()
		if re < ce || (re == ce && rv <= cv) {
			c.stats.Stale++
			c.recordAckLocked(r.SourceID, i)
			return false
		}
	}
	if ok {
		d := r.Value - cur.value
		if d < 0 {
			d = -d
		}
		c.stats.Divergence += d
	}
	// A copy whose origin is its sender is stored as direct: no origin, and
	// the sender's own (epoch, version) is the origin axis. An applied copy
	// is not acked: the ack would tell the sender only what it has just
	// sent, and its re-sends after a restart or a redial (which forgets
	// acks) land in the stale branches above, which ack.
	origin, originEpoch, originVersion := "", int64(0), uint64(0)
	if r.Origin != "" && r.Origin != r.SourceID {
		origin, originEpoch, originVersion = r.Origin, r.OriginEpoch, r.OriginVersion
		c.stats.PeerServed++
	}
	cur.value, cur.version, cur.epoch, cur.originVersion = r.Value, r.Version, r.Epoch, originVersion
	cur.refreshed = now
	cur.rt = st.routeFor(cur.rt, r.SourceID, origin, originEpoch, r.Hops, r.Via)
	c.stats.Refreshes++
	return true
}

// recordAckLocked marks slab index i as owing sender a held-version
// acknowledgement: "for this object I hold this origin-axis version". Only
// the index is recorded — the version is read from the entry when the ack is
// drained (takeAcks), which reports what the cache holds THEN: at or ahead of
// what it held now, so still truthful. Each sender has its own set, so two
// senders owed an ack for one object both get theirs. No-op under
// cache-driven policies — they send no feedback to carry the acks. Caller
// holds the write lock.
func (c *Cache) recordAckLocked(sender string, i int32) {
	if c.cfg.Policy.CacheDriven() {
		return
	}
	st := &c.store
	a := st.owedTo(sender)
	if a == nil {
		st.owed = append(st.owed, ackSet{sender: sender})
		a = &st.owed[len(st.owed)-1]
	}
	a.set(int(i))
}

// owedTo returns the pending-ack set of sender, or nil when it is owed
// nothing yet. Caller holds the write lock.
func (st *store) owedTo(sender string) *ackSet {
	if k := st.lastOwed; k < len(st.owed) && st.owed[k].sender == sender {
		return &st.owed[k]
	}
	for k := range st.owed {
		if st.owed[k].sender == sender {
			st.lastOwed = k
			return &st.owed[k]
		}
	}
	return nil
}

// maxHeldPerFeedback bounds the held-version acks piggybacked on one
// feedback message; the excess stays pending for the next one.
const maxHeldPerFeedback = 256

// takeAcks drains up to maxHeldPerFeedback pending acks toward sourceID,
// resuming where the previous drain stopped and reading each one's
// origin-axis version from the entry as it stands now. The result is c.acks,
// valid until the next call; nil when nothing is owed.
func (c *Cache) takeAcks(sourceID string) []wire.HeldVersion {
	out := c.acks[:0]
	c.mu.Lock()
	if a := c.store.owedTo(sourceID); a != nil {
		for len(out) < maxHeldPerFeedback {
			i, ok := a.pop()
			if !ok {
				break
			}
			sl := c.store.at(int32(i))
			e, v := sl.originAxis()
			out = append(out, wire.HeldVersion{ObjectID: sl.id, Epoch: e, Version: v})
		}
	}
	c.mu.Unlock()
	c.acks = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// maybeMergeStats refreshes the apply-rate gauge exposed by Status/ApplyRate
// once per mergeInterval.
func (c *Cache) maybeMergeStats() {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if elapsed := now.Sub(c.lastMerge.at); elapsed >= mergeInterval {
		c.applyRate = float64(c.stats.Refreshes-c.lastMerge.refreshes) / elapsed.Seconds()
		c.lastMerge = mergeMark{at: now, refreshes: c.stats.Refreshes}
	}
}

// sendFeedback spends up to k surplus units on feedback messages and
// returns how many were sent. Connected sources the cache has not yet heard
// a refresh from rank first: their local thresholds are unknown and possibly
// stuck above all their priorities (the warm-up case), and only feedback can
// bring them down.
func (c *Cache) sendFeedback(k int) int {
	connected := c.ep.Sources()
	c.mu.Lock()
	for _, id := range connected {
		c.sourceIndex(id)
	}
	if c.tracker == nil {
		c.mu.Unlock()
		return 0
	}
	targets := c.tracker.PickFeedbackTargets(k, false)
	ids := c.fbIDs[:0]
	for _, idx := range targets {
		ids = append(ids, c.srcIDs[idx])
	}
	c.fbIDs = ids
	c.mu.Unlock()
	sent := 0
	now := c.cfg.Now().UnixNano()
	for _, id := range ids {
		// Piggyback pending held-version acks (best effort: a lost
		// feedback loses its acks, and the origin-axis staleness guard —
		// not the ack channel — is what guarantees no regression).
		fb := wire.Feedback{CacheID: c.cfg.ID, Held: c.takeAcks(id), SentUnix: now}
		if err := c.ep.SendFeedback(id, fb); err == nil {
			sent++
		}
	}
	c.mu.Lock()
	c.stats.Feedbacks += sent
	c.mu.Unlock()
	return sent
}
