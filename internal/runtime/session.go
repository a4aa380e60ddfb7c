package runtime

import (
	"sync/atomic"
	"time"

	"bestsync/internal/transport"
	"bestsync/internal/wire"
)

// SessionStats is one sync session's slice of SourceStats: the protocol
// counters of a single source→cache pairing.
type SessionStats struct {
	// CacheID is the local destination label (Destination.CacheID).
	CacheID string
	// RemoteID is the id the cache reports about itself, learned from the
	// CacheID stamped on its feedback messages; empty until the first
	// feedback arrives (or when the cache has no id configured).
	RemoteID string
	// Share is the session's allocated send rate in messages/second — its
	// Section 7 slice of the source's bandwidth. Shares are live: they
	// move when destinations are added or removed, when SetBandwidth
	// replaces the total, and on every periodic re-allocation pass.
	Share float64
	// Weight is the effective share weight behind Share at the last
	// allocation: the static Destination.Weight, or the smoothed
	// contribution score when periodic re-allocation is enabled.
	Weight float64
	// Ended reports a session that exited permanently (connection gone
	// with no redial hook). Its counters are historical; its share has
	// been re-divided across the surviving sessions.
	Ended bool
	// Redialing reports a session whose connection is down and being
	// redialed with backoff: still alive, but unable to deliver until the
	// peer returns (the rebalancers treat its demand as zero meanwhile).
	Redialing  bool
	Refreshes  int
	Feedbacks  int
	SendErrors int
	Reconnects int
	Pending    int
	Threshold  float64
	// PollsAnswered counts poll requests this session answered from the
	// source store (cache-driven policies; Refreshes then counts the reply
	// items delivered).
	PollsAnswered int
	// HeldSkips counts sends skipped because the cache's held-version
	// feedback proved it already at-or-ahead of the scheduled value on the
	// origin axis (push policy).
	HeldSkips int
	// PollOmits counts poll items withheld from this session's replies:
	// split horizon (the poller produced or already relayed the value) or
	// a known-version hint proving the poller already at-or-ahead on the
	// same origin axis (cache-driven and hybrid policies).
	PollOmits int
	// Grouped reports a member of the source's session group: its refreshes
	// arrive via group broadcasts and catch-up (counted in Refreshes as
	// well), Threshold mirrors the group's, and Pending counts the objects
	// it lags on — the group's queue is reported once in SourceStats.Group.
	Grouped bool
	// Hybrid carries the migration controller's regime split and migration
	// counters under PolicyHybrid; nil under every other policy.
	Hybrid *HybridStats
}

// heldAxis is an acknowledged origin-axis version; the zero value (epoch 0)
// means no ack yet.
type heldAxis struct {
	epoch int64
	ver   uint64
}

// covers reports whether the ack covers the origin-axis version (oe, ov) a
// send would carry.
func (h heldAxis) covers(oe int64, ov uint64) bool {
	return heldAtOrAhead(h.epoch, h.ver, oe, ov)
}

// before reports whether n is a newer ack than h.
func (h heldAxis) before(n heldAxis) bool {
	return n.epoch > h.epoch || (n.epoch == h.epoch && n.ver > h.ver)
}

// syncSession drives the Section 5 protocol toward one downstream cache:
// it owns the per-destination scheduler (sched: divergence trackers relative
// to what that cache has been sent, the priority queue, the core.Source
// threshold engine), the token-bucket send budget, the connection and its
// feedback stream. A Source fans every Update into all of its sessions; each
// session then converges independently, so a slow or throttled cache never
// holds back the others.
//
// Locking: all scheduling state (sched, held, counters) is guarded by the
// owning Source's mutex; only the session's own goroutine (loop/flush)
// sends on the connection, and sends happen outside the lock so that
// cache-side back-pressure — the paper's network queueing — stalls just
// this session.
type syncSession struct {
	src  *Source
	dest Destination

	// Guarded by src.mu. The scheduler idles when the session is a group
	// member (objs nil — the group's one shared sched replaces it —
	// which is the O(members × objects) memory the group exists to avoid).
	// dest.Conn is also guarded by src.mu: a redial swaps it while flush and
	// Close read it. rate and weight are re-assigned by reallocateLocked
	// whenever the topology or the rebalancer moves shares; the loop re-reads
	// rate each tick rather than freezing it at start.
	sched
	rate            float64 // allocated share of the source bandwidth, msgs/s
	weight          float64 // effective weight behind rate at last allocation
	ended           bool    // loop exited permanently (no redial)
	redialing       bool    // connection down, redial loop running
	refreshes       int
	feedbacks       int
	windowFeedbacks int // feedbacks already folded into the rebalancer
	sendErrors      int
	reconnects      int
	pollsAnswered   int
	pollOmits       int
	heldSkips       int
	remoteID        string
	// held records, per queue key, the newest origin-axis version the cache
	// has ACKNOWLEDGED holding (wire.Feedback.Held), grouped or not. A send
	// whose origin axis is at-or-behind the ack is skipped — the cache
	// provably already has it: an individual session cancels it on the spot,
	// a grouped member is excluded from broadcasts and catch-up of that
	// object. An ack that has fallen behind the canonical axis excludes
	// nothing; one at the axis lets a lagging member's catch-up skip what the
	// cache proved it holds. nil until the first ack arrives, so a session
	// that is never acked (every child of an origin) pays nothing.
	held []heldAxis
	// heldPending buffers held-version acks for objects the source has not
	// produced yet (a cache can ack ahead of a relay's snapshot re-export);
	// Source.newObjLocked folds them in when the object appears, so the map
	// only ever holds ids that are not in src.objs.
	heldPending map[string]wire.HeldVersion

	// Group-delivery state, guarded by src.mu; the atomics are shared with
	// the group's sender workers. grouped holds from creation until removal
	// or end. lag is the member's dirty set over queue keys: objects it may
	// not hold the group's values of, drained by the flusher's catch-up.
	grouped   bool
	workerIdx int
	lag       keySet

	inflight        atomic.Int32 // group batches queued, not yet sent
	groupSent       atomic.Int64 // refreshes delivered via group sends
	groupSendErrors atomic.Int64

	stop chan struct{} // closed by RemoveDestination
	done chan struct{}
}

func newSyncSession(src *Source, dest Destination) *syncSession {
	return &syncSession{
		src:         src,
		dest:        dest,
		sched:       newSched(&src.cfg),
		heldPending: map[string]wire.HeldVersion{},
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
}

// heldAtOrAhead reports whether an acknowledged held version (he, hv)
// covers the origin-axis version (oe, ov) a send would carry.
func heldAtOrAhead(he int64, hv uint64, oe int64, ov uint64) bool {
	if he == 0 {
		return false // no ack recorded
	}
	return oe < he || (oe == he && ov <= hv)
}

// markDeliveredLocked commits object o as already-at-the-cache without a
// send: sent-state snaps to the canonical value, accumulated divergence is
// released from the rebalancer demand, and the object leaves the queue.
// Caller holds src.mu.
func (ss *syncSession) markDeliveredLocked(o *objState, now float64) {
	ss.commit(o, o.value, o.version, now, now)
	ss.heldSkips++
}

// observeLocked folds a canonical-state change for object o into this
// session's scheduler, unless the peer provably needs no send. Caller holds
// src.mu.
func (ss *syncSession) observeLocked(o *objState, now float64) {
	if p := ss.src.order.prov(o.key); ss.remoteID != "" && p.passedThrough(ss.remoteID) {
		// Split horizon: the peer produced or already relayed this value,
		// so its loop guard is guaranteed to reject a send — don't burn
		// this session's bandwidth share advertising it back. (An object
		// queued before feedback reveals the peer's identity is caught by
		// the same check at send time; see flush.)
		ss.unschedule(int(o.key), now)
		return
	}
	if int(o.key) < len(ss.held) {
		if oe, ov := ss.src.originAxisLocked(o); ss.held[o.key].covers(oe, ov) {
			// Held-skip: the cache acknowledged holding this origin version
			// (or newer), so a send is guaranteed to be dropped as stale
			// there — don't spend share on it, don't let it linger as demand.
			ss.markDeliveredLocked(o, now)
			return
		}
	}
	ss.observe(o, now)
}

// resyncLocked restarts the session from a cache that may hold nothing:
// every object is re-registered as never-sent and re-ranked from scratch.
// The contract a new destination and a redial share (a group member's dirty
// set fills instead); held acks are the caller's to keep or clear first.
// Caller holds src.mu.
func (ss *syncSession) resyncLocked(now float64) {
	ss.reset(ss.src.order.n)
	for o := range ss.src.order.all() {
		ss.observeLocked(o, now)
	}
}

// statsLocked snapshots the session counters. Caller holds src.mu.
func (ss *syncSession) statsLocked() SessionStats {
	pending := ss.eng.Queue.Len()
	threshold := ss.eng.Threshold()
	if ss.grouped {
		// The shared group engine schedules for a member; what the member
		// alone still waits for is its dirty set.
		pending = ss.lag.n
		threshold = ss.src.group.eng.Threshold()
	}
	st := SessionStats{
		CacheID:       ss.dest.CacheID,
		RemoteID:      ss.remoteID,
		Share:         ss.rate,
		Weight:        ss.weight,
		Ended:         ss.ended,
		Redialing:     ss.redialing,
		Grouped:       ss.grouped,
		Refreshes:     ss.refreshes + int(ss.groupSent.Load()),
		Feedbacks:     ss.feedbacks,
		SendErrors:    ss.sendErrors + int(ss.groupSendErrors.Load()),
		Reconnects:    ss.reconnects,
		Pending:       pending,
		Threshold:     threshold,
		PollsAnswered: ss.pollsAnswered,
		PollOmits:     ss.pollOmits,
		HeldSkips:     ss.heldSkips,
	}
	if ss.hyb != nil {
		hs := ss.hyb.statsLocked()
		st.Hybrid = &hs
	}
	return st
}

// onFeedback applies one feedback message from this session's cache. A
// grouped member's feedback feeds the SHARED engine — every member's
// feedback moves the one group threshold — while its held acks stay
// per-member, driving the member's batch exclusions.
func (ss *syncSession) onFeedback(f wire.Feedback) {
	s := ss.src
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	if f.CacheID != "" {
		ss.remoteID = f.CacheID
	}
	ss.feedbacks++
	if ss.grouped {
		s.group.eng.OnFeedback(now)
		s.group.feedbacks++
	} else {
		ss.eng.OnFeedback(now)
	}
	if ss.ended || s.cfg.Policy.CacheDriven() {
		return
	}
	for i := range f.Held {
		ss.recordHeldLocked(&f.Held[i], now)
	}
}

// maxHeldPending bounds the parked acks for objects this source has not
// produced yet; beyond it new unknown-object acks are dropped (they are an
// optimization, not a correctness channel).
const maxHeldPending = 4096

// raiseHeldLocked records ack h for the object with queue key key unless an
// at-least-as-new one is already recorded, and reports whether it did. The
// held slice is allocated on first use. Caller holds src.mu.
func (ss *syncSession) raiseHeldLocked(key int, h heldAxis) bool {
	if key < len(ss.held) && !ss.held[key].before(h) {
		return false
	}
	if key >= len(ss.held) {
		ss.held = append(ss.held, make([]heldAxis, ss.src.order.n-len(ss.held))...)
	}
	ss.held[key] = h
	return true
}

// recordHeldLocked folds one held-version ack into the session; the object
// id is resolved once. The newest ack per object is kept. On an individual
// session an object whose scheduled send the ack now covers is cancelled on
// the spot — this is what lets a relay restored from a stale snapshot stop
// re-exporting to a child that is already ahead. A grouped member only
// records it (exclusions are applied per batch and per catch-up), and only
// when it is at or ahead of the canonical origin axis: the axis only moves
// forward, so an ack already behind it can exclude nothing. Caller holds
// src.mu.
func (ss *syncSession) recordHeldLocked(h *wire.HeldVersion, now float64) {
	s := ss.src
	o, _ := s.objLocked(h.ObjectID)
	if o == nil {
		if len(ss.heldPending) < maxHeldPending {
			if p, dup := ss.heldPending[h.ObjectID]; !dup ||
				(heldAxis{p.Epoch, p.Version}).before(heldAxis{h.Epoch, h.Version}) {
				ss.heldPending[h.ObjectID] = *h
			}
		}
		return
	}
	ack := heldAxis{h.Epoch, h.Version}
	oe, ov := s.originAxisLocked(o)
	if ss.grouped {
		if ack.covers(oe, ov) {
			ss.raiseHeldLocked(int(o.key), ack)
		}
		return
	}
	if !ss.raiseHeldLocked(int(o.key), ack) {
		return // older than what we already know the cache holds
	}
	if so := &ss.objs[o.key]; so.sentVer == o.version && so.sentVal == o.value {
		return // nothing pending toward this cache anyway
	}
	if ack.covers(oe, ov) {
		ss.markDeliveredLocked(o, now)
	}
}

// loop is the session's one goroutine: it accrues budget at the session's
// allocated rate, flushes over-threshold objects, answers the cache's polls
// and folds in its feedback. One loop runs per session, so N caches drain
// concurrently and one blocked connection stalls only its own session. What
// the session does is a matter of which select cases are live, and that
// follows from state it already has — a nil channel never fires:
//
//   - The flush tick runs unless the session is a group member (the group's
//     one flusher schedules for the whole cohort; the member only relays
//     feedback). Under a cache-driven policy the tick only accrues: there
//     are no priorities, thresholds or pushes.
//   - Polls are read under every polling policy and only while the bucket
//     covers an answer, so an answer the source cannot afford stays in the
//     channel, where transport back-pressure drops the cache's best-effort
//     polls until it can (the cache re-polls on its period). Replies and
//     refreshes spend the SAME bucket. Under the hybrid policy that is the
//     equal-budget invariant the policy comparison rests on, and intake is
//     gated and charged at the poll round trip, the conservative bound
//     Policy.MessageCost reports; the pure polling policies count the reply
//     alone.
//   - The migration tick closes the hybrid controller's scoring window.
//
// The allocated rate is re-read under src.mu on every tick — never frozen at
// loop start — because shares move at runtime: AddDestination and
// RemoveDestination re-divide the budget, SetBandwidth replaces it, and the
// periodic re-allocation pass re-weights sessions.
//
// The feedback channel closing is the one disconnect signal under every
// policy. Redial (when configured) re-establishes the connection under the
// standard full-resync contract — a group member is skipped by every
// broadcast meanwhile and lags on every object once back — and a session
// without a redial hook ends, leaving the group. A polling cache is re-sent
// nothing it did not ask for.
func (ss *syncSession) loop() {
	defer close(ss.done)
	s := ss.src
	ticker := time.NewTicker(s.cfg.Tick)
	defer ticker.Stop()
	var tick, migrate <-chan time.Time
	pollCost := 1.0
	if ss.hyb != nil {
		t := time.NewTicker(ss.hyb.cfg.MigrateEvery)
		defer t.Stop()
		migrate, pollCost = t.C, pollRoundTrip
	}
	var (
		budget tokenBucket
		fb     <-chan wire.Feedback
		pc     transport.PollConn
		polls  <-chan wire.Poll
	)
	// link re-reads what the loop selects on: at start and after a redial.
	link := func() bool {
		s.mu.Lock()
		conn := ss.dest.Conn
		if !ss.grouped {
			tick = ticker.C // a member's sends are the group flusher's
		}
		s.mu.Unlock()
		fb = conn.Feedback()
		if s.cfg.Policy.Polls() {
			var ok bool
			if pc, ok = conn.(transport.PollConn); !ok {
				// Construction and AddDestination validate this; a redial
				// hook returning a poll-less connection is the only way
				// here. Treat it as a dead connection: end, surrendering
				// the share.
				ss.end()
				return false
			}
			polls = pc.Polls()
		}
		return true
	}
	if !link() {
		return
	}
	for {
		in := polls
		if budget.tokens < pollCost {
			in = nil
		}
		select {
		case <-s.stop:
			return
		case <-ss.stop:
			return // removed from the fan-out; the remover closes the conn
		case f, ok := <-fb:
			if ok {
				// The CGM baseline has no feedback, but a cache may still
				// identify itself; onFeedback records that under every policy.
				ss.onFeedback(f)
				continue
			}
			if ss.dest.Redial == nil {
				ss.end() // connection gone for good; survivors inherit the share
				return
			}
			if !ss.redial() {
				return // shutdown or removal won the race against the redial
			}
			if !link() {
				return
			}
		case p, ok := <-in:
			if !ok {
				polls = nil // the feedback close drives the redial
				continue
			}
			budget.tokens -= pollCost * float64(ss.answerPoll(pc, p))
		case <-tick:
			s.mu.Lock()
			rate := ss.rate
			s.mu.Unlock()
			budget.accrue(rate, s.cfg.Tick.Seconds(), s.cfg.Tick)
			if !s.cfg.Policy.Pushes() {
				continue
			}
			budget.tokens = ss.flush(budget.tokens)
		case <-migrate:
			ss.migrateOnce()
		}
	}
}

// migrateOnce runs one migration pass: the controller re-scores every
// object and the session applies the regime moves to its priority queue.
func (ss *syncSession) migrateOnce() {
	s := ss.src
	s.mu.Lock()
	defer s.mu.Unlock()
	if ss.ended || ss.objs == nil {
		return
	}
	now := s.now()
	promoted, demoted := ss.hyb.migrate(now)
	for _, key := range promoted {
		if key < len(ss.objs) {
			// The tracker kept accumulating while the object was polled,
			// so the promotion ranks it by its real outstanding divergence.
			ss.requeue(s.order.at(key), now)
		}
	}
	for _, key := range demoted {
		ss.eng.Queue.Remove(key)
	}
}

// answerPoll builds and sends the reply to one poll from the canonical
// store, returning the budget it spent: one unit per targeted item, and a
// flat one unit for a discovery reply — the full-store listing is universe
// METADATA (the cache registers ids from it, never values), so charging it
// per item would bill a control-plane message at data-plane rates and
// starve the targeted replies that actually move values. An empty object
// list is the discovery poll: the whole store is returned with All set.
// Counters commit only after a successful send, the same rule as the push
// path's flush; Refreshes counts targeted items only (the value
// transfers).
//
// Under the hybrid policy the reply additionally advertises the session's
// current push set (wire.PollReply.Pushed) so a cooperation-aware cache
// stops polling objects the source is already pushing, and each answered
// targeted item is charged to the migration controller at the poll
// round-trip cost and committed as delivered — the cache installs exactly
// the replied value, so the session's sent-state advances as if the value
// had been pushed.
func (ss *syncSession) answerPoll(pc transport.PollConn, p wire.Poll) int {
	s := ss.src
	s.mu.Lock()
	if p.CacheID != "" {
		ss.remoteID = p.CacheID // polls identify the peer like feedback does
	}
	var known map[string]wire.KnownVersion
	if len(p.Known) > 0 {
		known = make(map[string]wire.KnownVersion, len(p.Known))
		for _, k := range p.Known {
			known[k.ObjectID] = k
		}
	}
	epoch := s.started.UnixNano()
	builtAt, sentUnix := s.clock()
	reply := wire.PollReply{SourceID: s.cfg.ID, SentUnix: sentUnix}
	if len(p.ObjectIDs) == 0 {
		reply.All = true
		reply.Items = make([]wire.PollItem, 0, s.order.n)
		for o := range s.order.all() {
			if item, ok := ss.answerLocked(o, known, epoch); ok {
				reply.Items = append(reply.Items, item)
			}
		}
	} else {
		reply.Items = make([]wire.PollItem, 0, len(p.ObjectIDs))
		for _, id := range p.ObjectIDs {
			if o, _ := s.objLocked(id); o != nil {
				if item, ok := ss.answerLocked(o, known, epoch); ok {
					reply.Items = append(reply.Items, item)
				}
			} else {
				reply.Items = append(reply.Items, wire.PollItem{ObjectID: id})
			}
		}
	}
	if ss.hyb != nil {
		reply.Pushed = ss.hyb.pushSet(&s.order)
	}
	s.mu.Unlock()

	// Send outside the lock: cache-side back-pressure stalls only this
	// session, exactly like a push refresh send.
	if err := pc.SendReply(reply); err != nil {
		s.mu.Lock()
		ss.sendErrors++
		s.mu.Unlock()
		return 0
	}
	cost := len(reply.Items)
	if reply.All {
		cost = 1 // metadata listing, not value transfers
	}
	s.mu.Lock()
	now := s.now()
	ss.pollsAnswered++
	if !reply.All {
		ss.refreshes += len(reply.Items)
		if ss.hyb != nil && !ss.ended {
			ss.hyb.polled += len(reply.Items)
			for _, it := range reply.Items {
				ss.commitPolledLocked(it, builtAt, now)
			}
		}
	}
	s.mu.Unlock()
	return cost
}

// commitPolledLocked records one answered targeted poll item with the
// hybrid migration controller and advances the session's sent-state to
// the replied value — the same commit a pushed refresh gets, built when the
// reply was (builtAt), with updates that landed since left as its residual.
// Caller holds src.mu.
func (ss *syncSession) commitPolledLocked(it wire.PollItem, builtAt, now float64) {
	o, _ := ss.src.objLocked(it.ObjectID)
	if o == nil || int(o.key) >= len(ss.objs) {
		return
	}
	ss.hyb.charge(int(o.key), pollRoundTrip)
	if !it.Exists || it.Version <= ss.objs[o.key].sentVer {
		return // nothing replied, or a push already delivered something at-or-ahead
	}
	ss.commit(o, it.Value, it.Version, builtAt, now)
}

// answerLocked returns object o's answer to this session's poller, or false
// when o does not belong in the reply. Excluded on two grounds, both safe as
// plain omission (a poll reply is best-effort; the poller's estimator simply
// sees no change): split horizon — the poller produced or already relayed the
// value, so its intake loop guard is guaranteed to reject it — and a
// known-version hint (wire.Poll.Known) proving the poller already
// at-or-ahead on the SAME origin axis; hints for a different origin are
// ignored, because epochs from different origins are incomparable.
//
// The answer carries the object's provenance so a peer that installs the
// replied value can re-export it with the loop-avoidance path and origin axis
// intact — the lateral-serving half of the peer-face protocol. Locally
// produced values keep the zero provenance (and the legacy frame encoding).
// Caller holds src.mu.
func (ss *syncSession) answerLocked(o *objState, known map[string]wire.KnownVersion, epoch int64) (wire.PollItem, bool) {
	s := ss.src
	p := s.order.prov(o.key)
	if ss.remoteID != "" && p.passedThrough(ss.remoteID) {
		ss.pollOmits++
		return wire.PollItem{}, false
	}
	if k, ok := known[o.id]; ok {
		origin := p.Origin
		if origin == "" {
			origin = s.cfg.ID // locally produced: this source is the origin
		}
		if k.Origin == origin {
			if oe, ov := s.originAxisLocked(o); heldAtOrAhead(k.Epoch, k.Version, oe, ov) {
				ss.pollOmits++
				return wire.PollItem{}, false
			}
		}
	}
	return wire.PollItem{
		ObjectID:         o.id,
		Exists:           true,
		Value:            o.value,
		Version:          o.version,
		Epoch:            epoch,
		LastModifiedUnix: o.lastUnix,
		Origin:           p.Origin,
		Hops:             p.Hops,
		Via:              p.Via,
		OriginEpoch:      p.Epoch,
		OriginVersion:    p.Version,
	}, true
}

// end marks the session permanently dead and re-divides its share across
// the surviving sessions: a session that can never send again must not
// keep a slice of the budget (nor skew the aggregate threshold mean — see
// Source.Stats). A group member leaves the group. Its per-object state is
// released — nothing will ever observe or flush it again — while the counters
// stay for the ENDED stats row.
func (ss *syncSession) end() {
	s := ss.src
	s.mu.Lock()
	s.group.detachLocked(ss)
	ss.ended = true
	ss.reset(0)
	ss.held, ss.lag = nil, keySet{}
	s.reallocateLocked()
	s.mu.Unlock()
}

// Reconnect backoff bounds: the first redial attempt waits
// redialMinBackoff, each failure doubles the wait up to redialMaxBackoff,
// and the loop only gives up when the source shuts down.
const (
	redialMinBackoff = 50 * time.Millisecond
	redialMaxBackoff = 5 * time.Second
)

// redial re-establishes this session's connection with exponential backoff,
// returning false when the source shuts down first. On success the session's
// sent-state is reset: the peer may have restarted empty, so every object is
// re-registered as never-sent and re-ranked (for a group member: marked
// dirty). For a peer that in fact kept its store, the re-sends are harmless —
// the cache's (epoch, version) staleness guards drop anything it already holds.
func (ss *syncSession) redial() bool {
	s := ss.src
	// Release the dead connection first: a Batcher wrapping it keeps a
	// flush goroutine (and retries its re-buffered batch) until closed.
	// Close is idempotent on every provided transport, so racing
	// Source.Close's own snapshot-and-close is harmless. While the redial
	// runs, the session is flagged so the rebalance pass does not let its
	// ever-growing demand (nothing resets while the peer is gone) capture
	// share from sessions that can actually spend it, and so that group
	// broadcasts skip it.
	s.mu.Lock()
	ss.redialing = true
	old := ss.dest.Conn
	s.mu.Unlock()
	old.Close()
	backoff := redialMinBackoff
	for {
		select {
		case <-s.stop:
			return false
		case <-ss.stop:
			return false // removed from the fan-out mid-backoff
		case <-time.After(backoff):
		}
		conn, err := ss.dest.Redial()
		if err != nil {
			backoff *= 2
			if backoff > redialMaxBackoff {
				backoff = redialMaxBackoff
			}
			continue
		}
		s.mu.Lock()
		select {
		case <-s.stop:
			// Shutdown raced the redial: Close may have already snapshotted
			// the old connection, so this one is ours to clean up.
			s.mu.Unlock()
			conn.Close()
			return false
		default:
		}
		select {
		case <-ss.stop:
			// Removal raced the redial: the remover closed the connection
			// it saw, so this fresh one is ours to clean up.
			s.mu.Unlock()
			conn.Close()
			return false
		default:
		}
		ss.dest.Conn = conn
		ss.redialing = false
		ss.reconnects++
		// The peer may be a different instance now (failover, redeploy):
		// forget the old identity so re-sent refreshes carry no stale
		// CacheID stamp (which the new peer would count as misrouted)
		// until its own feedback reveals who it is.
		ss.remoteID = ""
		// Forget held acks with the rest of the peer state: the replacement
		// instance may hold nothing, and a stale ack would wrongly skip its
		// re-sync.
		ss.held = nil
		ss.heldPending = map[string]wire.HeldVersion{}
		switch {
		case ss.grouped:
			s.group.lagLocked(ss, nil)
		case !s.cfg.Policy.CacheDriven():
			// Under the hybrid policy the re-observe passes the poll-set
			// gate, so only push-set objects re-queue.
			ss.resyncLocked(s.now())
		}
		s.mu.Unlock()
		return true
	}
}

// flush sends over-threshold objects while budget remains, returning the
// leftover budget.
//
// Sent-state is committed only AFTER a successful send: on error the
// tracker, queue entry and threshold are left untouched, so the refresh is
// retried on the next flush instead of being silently dropped (a failed
// send must not look like a delivered one). Updates that raced in while the
// send was in flight are the commit's residual (see sched.commit).
func (ss *syncSession) flush(budget float64) float64 {
	s := ss.src
	if s.cfg.SuppressWithinThreshold {
		// Observe work deferred by the within-threshold suppression replays
		// here, before sendability is consulted — the deferral only ever
		// moves bookkeeping to this point, never past a send decision.
		s.mu.Lock()
		s.replayDeferredLocked(s.now())
		s.mu.Unlock()
	}
	for budget >= 1 {
		s.mu.Lock()
		key, _, ok := ss.eng.ShouldSend()
		if !ok {
			ss.eng.SetLimited(false)
			s.mu.Unlock()
			return budget
		}
		o := s.order.at(key)
		prov := s.order.prov(o.key)
		builtAt, sentUnix := s.clock()
		if ss.remoteID != "" && prov.passedThrough(ss.remoteID) {
			// Split horizon binds at send time: this object was queued
			// before feedback revealed the peer's identity, so
			// observeLocked could not exclude it. Drop it now, unsent and
			// uncharged, as the group path does per batch.
			ss.unschedule(key, builtAt)
			s.mu.Unlock()
			continue
		}
		// Stamped with the cache identity learned from feedback (not the
		// local label): the advisory mismatch counter on the cache then only
		// fires on genuine miswiring, never on operators labeling
		// destinations differently than caches name themselves.
		msg := ss.refresh(o, &prov, ss.remoteID, s.started.UnixNano(), sentUnix)
		conn := ss.dest.Conn
		s.mu.Unlock()

		// Send outside the lock: a saturated cache applies back-pressure
		// here, which is exactly the paper's network queueing — and it
		// stalls only this session. The connection is snapshotted under the
		// lock above because a redial may swap it concurrently.
		if err := conn.SendRefresh(msg); err != nil {
			s.mu.Lock()
			ss.sendErrors++
			s.mu.Unlock()
			return budget
		}

		s.mu.Lock()
		ss.commitPush(o, msg.Value, msg.Version, builtAt, s.now())
		if ss.hyb != nil {
			ss.hyb.charge(key, 1)
		}
		ss.refreshes++
		s.mu.Unlock()
		budget--
	}
	s.mu.Lock()
	ss.limit(budget)
	s.mu.Unlock()
	return budget
}

// Destination describes one downstream cache of a fan-out source.
type Destination struct {
	// CacheID is the local label for this destination in stats and
	// diagnostics. Outgoing refreshes are stamped with the cache's
	// self-reported identity once feedback reveals it (SessionStats
	// distinguishes the two as CacheID vs RemoteID). Defaults to
	// "cache-<i>".
	CacheID string
	// Conn is the connection to the cache. Wrap it in a transport.Batcher
	// for batched framing; batches never span destinations.
	Conn transport.SourceConn
	// Weight is the destination's share weight for dividing
	// SourceConfig.Bandwidth across sessions (Section 7 share allocation);
	// non-positive means 1 (equal shares when all are defaulted).
	Weight float64
	// Redial, when non-nil, re-establishes the connection after the
	// current one dies: the session retries it with exponential backoff
	// (50 ms doubling to 5 s) until it succeeds or the source closes,
	// then resets its sent-state so a peer that restarted empty is fully
	// re-synchronized. Return a connection wrapped the same way as Conn
	// (e.g. in a transport.Batcher). Nil keeps the old behavior: a dead
	// connection permanently ends its session.
	Redial func() (transport.SourceConn, error)
}
