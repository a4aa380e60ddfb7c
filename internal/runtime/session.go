package runtime

import (
	"sync/atomic"
	"time"

	"bestsync/internal/core"
	"bestsync/internal/metric"
	"bestsync/internal/priority"
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
	// Grouped reports a session currently attached to the source's session
	// group: its refreshes arrive via group broadcasts (counted in
	// Refreshes here as well), Threshold mirrors the shared group
	// threshold, and Pending is zero — the group's queue is reported once
	// in SourceStats.Group.
	Grouped bool
	// Hybrid carries the migration controller's regime split and migration
	// counters under PolicyHybrid; nil under every other policy.
	Hybrid *HybridStats
}

// sessObj is one session's view of one object: the value/version last
// successfully sent to THIS session's cache and the divergence accumulated
// against it. The canonical object state (current value, version, update
// counts) lives in Source.objState; sessions only track what their cache
// is missing. held records the newest origin-axis version the cache has
// ACKNOWLEDGED holding (wire.Feedback.Held). A scheduled send whose origin
// axis is at-or-behind the ack is skipped — the cache provably already has
// it. Sessions keep these records by value in a slice parallel to
// Source.order: no heap object per (session, object).
type sessObj struct {
	sentVal float64
	sentVer uint64
	held    heldAxis
	tracker metric.Tracker
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
// it owns the per-destination scheduling state — divergence trackers
// relative to what that cache has been sent, the priority queue, the
// core.Source threshold engine, the token-bucket send budget — plus the
// connection and its feedback stream. A Source fans every Update into all
// of its sessions; each session then converges independently, so a slow or
// throttled cache never holds back the others.
//
// Locking: all scheduling state (objs, engine, counters) is guarded by the
// owning Source's mutex; only the session's own goroutine (loop/flush)
// sends on the connection, and sends happen outside the lock so that
// cache-side back-pressure — the paper's network queueing — stalls just
// this session.
type syncSession struct {
	src  *Source
	dest Destination
	eng  *core.Source

	// Guarded by src.mu. objs is parallel to src.order: entry k is this
	// session's view of the object with queue key k. dest.Conn is
	// also guarded by src.mu: a redial swaps it while flush and Close read
	// it. rate and weight are re-assigned by reallocateLocked whenever the
	// topology or the rebalancer moves shares; the loop re-reads rate each
	// tick rather than freezing it at start.
	rate            float64 // allocated share of the source bandwidth, msgs/s
	weight          float64 // effective weight behind rate at last allocation
	ended           bool    // loop exited permanently (no redial)
	redialing       bool    // connection down, redial loop running
	demand          float64 // running Σ tracker.Current() over objs (rebalancer signal)
	objs            []sessObj
	refreshes       int
	feedbacks       int
	windowFeedbacks int // feedbacks already folded into the rebalancer
	sendErrors      int
	reconnects      int
	pollsAnswered   int
	pollOmits       int
	heldSkips       int
	remoteID        string
	// heldPending buffers held-version acks for objects the source has not
	// produced yet (a cache can ack ahead of a relay's snapshot re-export);
	// Source.newObjLocked folds them in when the object appears, so the map
	// only ever holds ids that are not in src.objs.
	heldPending map[string]wire.HeldVersion
	// hyb is the per-object migration controller under PolicyHybrid (nil
	// otherwise): it decides which objects this session pushes and which
	// it leaves to the cache's poll schedule. Guarded by src.mu.
	hyb *hybridController

	// Group-delivery state. grouped/wantGroup/held/workerIdx/groupConn/
	// groupFS/detached are guarded by src.mu; the atomics are shared with
	// the group's sender workers. While grouped, objs is nil — the shared
	// groupObj state replaces it — and held carries the only per-member
	// per-object state left: the newest ack per queue key, AT or ahead of
	// the canonical origin axis when it was recorded. An ack ahead of the
	// axis excludes the member from broadcasts of that object; one that has
	// fallen behind excludes nothing, and all of them survive a detach so
	// the re-sync skips what the cache proved it holds. nil until the first
	// ack arrives, so a member that is never acked (every child of an
	// origin) pays nothing.
	grouped   bool
	wantGroup bool // group-eligible: re-attach when fully synced
	workerIdx int
	held      []heldAxis
	groupConn transport.SourceConn
	groupFS   transport.FrameSender
	detached  chan struct{} // closed by the group on detach

	inflight        atomic.Int32 // group batches queued, not yet sent
	groupSent       atomic.Int64 // refreshes delivered via group sends
	groupSendErrors atomic.Int64

	stop chan struct{} // closed by RemoveDestination
	done chan struct{}
}

func newSyncSession(src *Source, dest Destination) *syncSession {
	ss := &syncSession{
		src:         src,
		dest:        dest,
		eng:         core.NewSource(0, src.cfg.Params, core.PositiveFeedback),
		heldPending: map[string]wire.HeldVersion{},
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	if src.cfg.Policy == PolicyHybrid {
		ss.hyb = newHybridController(src.cfg.Hybrid)
	}
	return ss
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
	so := &ss.objs[o.key]
	so.sentVal, so.sentVer = o.value, o.version
	ss.unscheduleLocked(o.key, now)
	ss.heldSkips++
}

// unscheduleLocked takes the object with queue key key out of this
// session's schedule without a send. The tracker is zeroed too: divergence
// toward an object this session will not send must not linger as rebalancer
// demand, where it would earn share the session cannot spend. Caller holds
// src.mu.
func (ss *syncSession) unscheduleLocked(key int, now float64) {
	so := &ss.objs[key]
	ss.demand -= so.tracker.Current()
	so.tracker.Reset(now, 0)
	ss.eng.Queue.Remove(key)
}

// observeLocked folds a canonical-state change for object o into this
// session's divergence tracker and priority queue. Caller holds src.mu.
func (ss *syncSession) observeLocked(o *objState, now float64) {
	key := o.key
	so := &ss.objs[key]
	if ss.remoteID != "" && o.prov.passedThrough(ss.remoteID) {
		// Split horizon: the peer produced or already relayed this value,
		// so its loop guard is guaranteed to reject a send — don't burn
		// this session's bandwidth share advertising it back. (An object
		// queued before feedback reveals the peer's identity is caught by
		// the same check at send time; see flush.)
		ss.unscheduleLocked(key, now)
		return
	}
	if oe, ov := ss.src.originAxisLocked(o); so.held.covers(oe, ov) {
		// Held-skip: the cache acknowledged holding this origin version (or
		// newer), so a send is guaranteed to be dropped as stale there —
		// don't spend share on it, don't let it linger as demand.
		ss.markDeliveredLocked(o, now)
		return
	}
	d := metric.Divergence(ss.src.cfg.Metric, ss.src.cfg.Delta,
		int(o.version-so.sentVer), o.value, so.sentVal)
	if so.sentVer == 0 && d == 0 {
		// Nothing has ever been sent to this cache: it holds no copy at
		// all, so even a value matching the zero baseline must be
		// propagated to register the object.
		d = 1
	}
	if ss.hyb != nil {
		ss.hyb.observe(key, d-so.tracker.Current(), now)
	}
	ss.demand += d - so.tracker.Current()
	so.tracker.Update(now, d)
	ss.requeueLocked(o, now)
}

// requeueLocked recomputes object o's refresh priority for this session
// and syncs the engine queue. Under the hybrid policy only push-set
// objects are queued: a poll-set object stays fully tracked — divergence
// and demand keep accumulating, which is what a later promotion ranks it
// by — but the cache's poll schedule owns its freshness, so queueing it
// here would double-spend the shared budget. Caller holds src.mu.
func (ss *syncSession) requeueLocked(o *objState, now float64) {
	s := ss.src
	key := o.key
	if ss.hyb != nil && !ss.hyb.pushed(key) {
		ss.eng.Queue.Remove(key)
		return
	}
	w := 1.0
	if s.cfg.Weight != nil {
		w = s.cfg.Weight(o.id)
	}
	lambda := 0.0
	if span := now - o.firstAt; span > 0 && o.updates > 1 {
		lambda = float64(o.updates) / span
	}
	so := &ss.objs[key]
	p := priority.Compute(s.cfg.PriorityFn, priority.Inputs{
		Now:         now,
		LastRefresh: so.tracker.LastReset(),
		Divergence:  so.tracker.Current(),
		Integral:    so.tracker.Integral(now),
		Weight:      w,
		Lambda:      lambda,
		Updates:     so.tracker.UpdatesBehind(),
	})
	if p > 0 {
		ss.eng.Queue.Upsert(key, p)
	} else {
		ss.eng.Queue.Remove(key)
	}
}

// statsLocked snapshots the session counters. Caller holds src.mu.
func (ss *syncSession) statsLocked() SessionStats {
	pending := ss.eng.Queue.Len()
	threshold := ss.eng.Threshold()
	if ss.grouped {
		// The member's own engine idles while grouped; the shared group
		// engine is what schedules for it.
		pending = 0
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
// at-least-as-new one is already recorded, and reports whether it did. An
// individual session keeps the ack in its sessObj, a grouped member in its
// held slice (allocated on first use). Caller holds src.mu.
func (ss *syncSession) raiseHeldLocked(key int, h heldAxis) bool {
	var cur *heldAxis
	if ss.grouped {
		if key >= len(ss.held) {
			ss.held = append(ss.held, make([]heldAxis, len(ss.src.order)-len(ss.held))...)
		}
		cur = &ss.held[key]
	} else if key < len(ss.objs) {
		cur = &ss.objs[key].held
	} else {
		return false // the session keeps no per-object state (any more)
	}
	if !cur.before(h) {
		return false
	}
	*cur = h
	return true
}

// recordHeldLocked folds one held-version ack into the session; the object
// id is resolved once. The newest ack per object is kept. On an individual
// session an object whose scheduled send the ack now covers is cancelled on
// the spot — this is what lets a relay restored from a stale snapshot stop
// re-exporting to a child that is already ahead. A grouped member only
// records it (exclusions are applied per batch), and only when it is at or
// ahead of the canonical origin axis: the axis only moves forward, so an ack
// already behind it can exclude nothing and cancel nothing after a detach.
// Caller holds src.mu.
func (ss *syncSession) recordHeldLocked(h *wire.HeldVersion, now float64) {
	s := ss.src
	o, ok := s.objs[h.ObjectID]
	if !ok {
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
			ss.raiseHeldLocked(o.key, ack)
		}
		return
	}
	if !ss.raiseHeldLocked(o.key, ack) {
		return // older than what we already know the cache holds
	}
	if so := &ss.objs[o.key]; so.sentVer == o.version && so.sentVal == o.value {
		return // nothing pending toward this cache anyway
	}
	if ack.covers(oe, ov) {
		ss.markDeliveredLocked(o, now)
	}
}

// loop is the session's send loop: it accrues budget at the session's
// allocated rate, flushes over-threshold objects, and folds in feedback
// from its cache. One loop goroutine runs per session, so N caches drain
// concurrently and one blocked connection stalls only its own session.
//
// The allocated rate is re-read under src.mu on every tick — never frozen
// at loop start — because shares move at runtime: AddDestination and
// RemoveDestination re-divide the budget, SetBandwidth replaces it, and
// the periodic re-allocation pass re-weights sessions. The burst ceiling
// is recomputed from the same read, so a share increase raises the
// session's burst on the next tick and a decrease caps any budget already
// accrued at the old, higher rate.
func (ss *syncSession) loop() {
	defer close(ss.done)
	s := ss.src
	if s.cfg.Policy == PolicyHybrid {
		ss.hybridLoop()
		return
	}
	if s.cfg.Policy.CacheDriven() {
		ss.pollLoop()
		return
	}
	// A group-eligible session alternates between two bodies: while
	// attached it only relays feedback (no ticker — the group's one flush
	// ticker schedules for the whole cohort), and after a detach it runs
	// the full individual push body until maybeRejoin re-attaches it.
	for {
		s.mu.Lock()
		grouped := ss.grouped
		s.mu.Unlock()
		var again bool
		if grouped {
			again = ss.groupLoop()
		} else {
			again = ss.pushLoop()
		}
		if !again {
			return
		}
	}
}

// groupLoop is the session body while attached to the group: no ticker, no
// flushes — just feedback relay into the shared engine and the member's
// exclusion set. Returns true when the session should continue on the
// individual path (detached, or connection lost), false on shutdown or
// removal.
func (ss *syncSession) groupLoop() bool {
	s := ss.src
	s.mu.Lock()
	if !ss.grouped {
		s.mu.Unlock()
		return true
	}
	fb := ss.dest.Conn.Feedback()
	detached := ss.detached
	s.mu.Unlock()
	for {
		select {
		case <-s.stop:
			return false
		case <-ss.stop:
			return false // removed from the fan-out; the remover closes the conn
		case <-detached:
			return true // the group dropped us (overrun/removal); go individual
		case f, ok := <-fb:
			if !ok {
				// Connection gone. Leave the group so the broadcast stops
				// feeding a dead pipe, rebuild individual state, and let the
				// push body redial (or end) under the standard full-resync
				// contract — a redialing member receives no group sends.
				s.mu.Lock()
				s.group.detachLocked(ss, true)
				s.reallocateLocked()
				s.mu.Unlock()
				return true
			}
			ss.onFeedback(f)
		}
	}
}

// maybeRejoin re-attaches a group-eligible session once its individual path
// has caught the cache up: nothing sendable left (the queue is empty or
// holds only below-threshold residuals — divergence the engine tolerates by
// definition, so waiting for an empty queue would park a member on the
// individual path forever under sustained load), no outstanding group
// sends, connection up. Called from the push body after each flush.
func (ss *syncSession) maybeRejoin() bool {
	s := ss.src
	if s.group == nil || !ss.wantGroup {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ss.grouped || ss.ended || ss.redialing {
		return false
	}
	if ss.inflight.Load() != 0 {
		return false
	}
	if _, _, sendable := ss.eng.ShouldSend(); sendable {
		return false
	}
	s.group.attachLocked(ss)
	s.group.rejoins++
	s.reallocateLocked()
	return true
}

// pushLoop is the individual-session push body. Returns true when the
// session re-attached to the group (continue in groupLoop), false on
// shutdown, removal, or permanent end.
func (ss *syncSession) pushLoop() bool {
	s := ss.src
	ticker := time.NewTicker(s.cfg.Tick)
	defer ticker.Stop()
	budget := 0.0
	s.mu.Lock()
	fb := ss.dest.Conn.Feedback()
	s.mu.Unlock()
	for {
		select {
		case <-s.stop:
			return false
		case <-ss.stop:
			return false // removed from the fan-out; the remover closes the conn
		case f, ok := <-fb:
			if !ok {
				if ss.dest.Redial == nil {
					ss.end() // connection gone for good; survivors inherit the share
					return false
				}
				if !ss.redial() {
					return false // shutdown or removal won the race against the redial
				}
				s.mu.Lock()
				fb = ss.dest.Conn.Feedback()
				s.mu.Unlock()
				continue
			}
			ss.onFeedback(f)
		case <-ticker.C:
			s.mu.Lock()
			rate := ss.rate
			s.mu.Unlock()
			burst := tokenBurst(rate, s.cfg.Tick)
			budget += rate * s.cfg.Tick.Seconds()
			if budget > burst {
				budget = burst
			}
			budget = ss.flush(budget)
			if ss.maybeRejoin() {
				return true
			}
		}
	}
}

// pollLoop is the session's body under a cache-driven policy: instead of
// pushing over-threshold refreshes, it answers the cache's polls from the
// source's canonical store. Replies are paced by the session's allocated
// token-bucket share exactly like push refreshes — a reply's items spend
// budget, and when the bucket is empty the loop stops reading polls, so the
// poll channel backs up and the cache's best-effort polls are dropped until
// the source can afford to answer (the cache re-polls on its period).
//
// Disconnect handling is identical to the push loop: the feedback channel
// closing is the signal, redial (when configured) re-establishes the
// connection, and a session without a redial hook ends. Nothing is re-sent
// on reconnect — a polling cache re-asks for what it wants.
func (ss *syncSession) pollLoop() {
	s := ss.src
	ticker := time.NewTicker(s.cfg.Tick)
	defer ticker.Stop()
	budget := 0.0
	s.mu.Lock()
	conn := ss.dest.Conn
	s.mu.Unlock()
	pc, ok := conn.(transport.PollConn)
	if !ok {
		// Construction and AddDestination validate this; a redial hook
		// returning a poll-less connection is the only way here. Treat it
		// as a dead connection: end, surrendering the share.
		ss.end()
		return
	}
	fb := conn.Feedback()
	polls := pc.Polls()
	for {
		in := polls
		if budget < 1 {
			in = nil
		}
		select {
		case <-s.stop:
			return
		case <-ss.stop:
			return // removed from the fan-out; the remover closes the conn
		case f, fbOK := <-fb:
			if !fbOK {
				if ss.dest.Redial == nil {
					ss.end()
					return
				}
				if !ss.redial() {
					return // shutdown or removal won the race
				}
				s.mu.Lock()
				conn = ss.dest.Conn
				s.mu.Unlock()
				if pc, ok = conn.(transport.PollConn); !ok {
					ss.end()
					return
				}
				fb = conn.Feedback()
				polls = pc.Polls()
				continue
			}
			// The CGM baseline has no feedback, but a cache may still
			// identify itself; record it like the push path does.
			ss.onFeedback(f)
		case p, pOK := <-in:
			if !pOK {
				polls = nil // the feedback close drives the redial
				continue
			}
			budget -= float64(ss.answerPoll(pc, p))
		case <-ticker.C:
			s.mu.Lock()
			rate := ss.rate
			s.mu.Unlock()
			burst := tokenBurst(rate, s.cfg.Tick)
			budget += rate * s.cfg.Tick.Seconds()
			if budget > burst {
				budget = burst
			}
		}
	}
}

// hybridLoop is the session's body under the hybrid policy: the push
// loop's flush ticker and the poll loop's answer path fused over ONE
// token bucket, so the hot head's refreshes and the cold tail's poll
// replies spend the same allocated share — the equal-budget invariant the
// policy comparison rests on. Poll intake is gated at the poll round-trip
// cost (an answer the bucket cannot cover is left in the channel, where
// transport back-pressure drops best-effort polls until the source can
// afford them); each answered reply is charged the full round trip, the
// conservative bound Policy.MessageCost reports. A separate migration
// ticker closes the controller's scoring window: promoted objects enter
// the priority queue carrying the divergence their trackers accumulated
// while polled, demoted ones leave it and fall back to the cache's poll
// schedule. Disconnect handling is the poll loop's: the feedback channel
// closing drives the redial, and the standard full-resync on reconnect
// re-observes every object — through the poll-set gate, so only push-set
// objects re-queue.
func (ss *syncSession) hybridLoop() {
	s := ss.src
	ticker := time.NewTicker(s.cfg.Tick)
	defer ticker.Stop()
	migrate := time.NewTicker(s.cfg.Hybrid.withDefaults().MigrateEvery)
	defer migrate.Stop()
	budget := 0.0
	s.mu.Lock()
	conn := ss.dest.Conn
	s.mu.Unlock()
	pc, ok := conn.(transport.PollConn)
	if !ok {
		// Construction and AddDestination validate this; a redial hook
		// returning a poll-less connection is the only way here.
		ss.end()
		return
	}
	fb := conn.Feedback()
	polls := pc.Polls()
	for {
		in := polls
		if budget < pollRoundTrip {
			in = nil
		}
		select {
		case <-s.stop:
			return
		case <-ss.stop:
			return // removed from the fan-out; the remover closes the conn
		case f, fbOK := <-fb:
			if !fbOK {
				if ss.dest.Redial == nil {
					ss.end()
					return
				}
				if !ss.redial() {
					return // shutdown or removal won the race
				}
				s.mu.Lock()
				conn = ss.dest.Conn
				s.mu.Unlock()
				if pc, ok = conn.(transport.PollConn); !ok {
					ss.end()
					return
				}
				fb = conn.Feedback()
				polls = pc.Polls()
				continue
			}
			ss.onFeedback(f)
		case p, pOK := <-in:
			if !pOK {
				polls = nil // the feedback close drives the redial
				continue
			}
			budget -= pollRoundTrip * float64(ss.answerPoll(pc, p))
		case <-ticker.C:
			s.mu.Lock()
			rate := ss.rate
			s.mu.Unlock()
			burst := tokenBurst(rate, s.cfg.Tick)
			budget += rate * s.cfg.Tick.Seconds()
			if budget > burst {
				budget = burst
			}
			budget = ss.flush(budget)
		case <-migrate.C:
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
			ss.requeueLocked(s.order[key], now)
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
	reply := wire.PollReply{SourceID: s.cfg.ID, SentUnix: s.cfg.Now().UnixNano()}
	if len(p.ObjectIDs) == 0 {
		reply.All = true
		reply.Items = make([]wire.PollItem, 0, len(s.order))
		for _, o := range s.order {
			if !ss.servableLocked(o, known) {
				continue
			}
			reply.Items = append(reply.Items, pollItemLocked(o, epoch))
		}
	} else {
		reply.Items = make([]wire.PollItem, 0, len(p.ObjectIDs))
		for _, id := range p.ObjectIDs {
			if o, ok := s.objs[id]; ok {
				if !ss.servableLocked(o, known) {
					continue
				}
				reply.Items = append(reply.Items, pollItemLocked(o, epoch))
			} else {
				reply.Items = append(reply.Items, wire.PollItem{ObjectID: id})
			}
		}
	}
	if ss.hyb != nil {
		reply.Pushed = ss.hyb.pushSet(s.order)
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
				ss.commitPolledLocked(it, now)
			}
		}
	}
	s.mu.Unlock()
	return cost
}

// commitPolledLocked records one answered targeted poll item with the
// hybrid migration controller and advances the session's sent-state to
// the replied value — the flush commit's twin for the poll regime, with
// the residual (updates that landed after the reply was built) left on
// the tracker. Caller holds src.mu.
func (ss *syncSession) commitPolledLocked(it wire.PollItem, now float64) {
	s := ss.src
	o, ok := s.objs[it.ObjectID]
	if !ok || o.key >= len(ss.objs) {
		return
	}
	ss.hyb.charge(o.key, pollRoundTrip)
	if !it.Exists {
		return
	}
	so := &ss.objs[o.key]
	if it.Version <= so.sentVer {
		return // a push already delivered something at-or-ahead
	}
	so.sentVal, so.sentVer = it.Value, it.Version
	d := metric.Divergence(s.cfg.Metric, s.cfg.Delta,
		int(o.version-so.sentVer), o.value, so.sentVal)
	ss.demand += d - so.tracker.Current()
	so.tracker.Reset(now, d)
	ss.requeueLocked(o, now)
}

// servableLocked reports whether object o belongs in a reply to this
// session's poller. Excluded on two grounds, both safe as plain omission (a
// poll reply is best-effort; the poller's estimator simply sees no change):
// split horizon — the poller produced or already relayed the value, so its
// intake loop guard is guaranteed to reject it — and a known-version hint
// (wire.Poll.Known) proving the poller already at-or-ahead on the SAME
// origin axis; hints for a different origin are ignored, because epochs
// from different origins are incomparable. Caller holds src.mu.
func (ss *syncSession) servableLocked(o *objState, known map[string]wire.KnownVersion) bool {
	s := ss.src
	if ss.remoteID != "" && o.prov.passedThrough(ss.remoteID) {
		ss.pollOmits++
		return false
	}
	if k, ok := known[o.id]; ok {
		origin := o.prov.Origin
		if origin == "" {
			origin = s.cfg.ID // locally produced: this source is the origin
		}
		if k.Origin == origin {
			if oe, ov := s.originAxisLocked(o); heldAtOrAhead(k.Epoch, k.Version, oe, ov) {
				ss.pollOmits++
				return false
			}
		}
	}
	return true
}

// pollItemLocked snapshots one object's poll answer, carrying the object's
// provenance so a peer that installs the replied value can re-export it
// with the loop-avoidance path and origin axis intact — the lateral-serving
// half of the peer-face protocol. Locally produced values keep the zero
// provenance (and the legacy frame encoding). Caller holds src.mu.
func pollItemLocked(o *objState, epoch int64) wire.PollItem {
	return wire.PollItem{
		ObjectID:         o.id,
		Exists:           true,
		Value:            o.value,
		Version:          o.version,
		Epoch:            epoch,
		LastModifiedUnix: o.lastUnix,
		Origin:           o.prov.Origin,
		Hops:             o.prov.Hops,
		Via:              o.prov.Via,
		OriginEpoch:      o.prov.Epoch,
		OriginVersion:    o.prov.Version,
	}
}

// end marks the session permanently dead and re-divides its share across
// the surviving sessions: a session that can never send again must not
// keep a slice of the budget (nor skew the aggregate threshold mean — see
// Source.Stats). Its per-object state is released — nothing will ever
// observe or flush it again — while the counters stay for the ENDED stats
// row.
func (ss *syncSession) end() {
	s := ss.src
	s.mu.Lock()
	ss.ended = true
	ss.wantGroup = false
	ss.objs = nil
	ss.demand = 0
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
// re-registered as never-sent and re-ranked for refresh from scratch. For a
// peer that in fact kept its store, the re-sends are harmless — the cache's
// (epoch, version) staleness guards drop anything it already holds.
func (ss *syncSession) redial() bool {
	s := ss.src
	// Release the dead connection first: a Batcher wrapping it keeps a
	// flush goroutine (and retries its re-buffered batch) until closed.
	// Close is idempotent on every provided transport, so racing
	// Source.Close's own snapshot-and-close is harmless. While the redial
	// runs, the session is flagged so the rebalance pass does not let its
	// ever-growing demand (nothing resets while the peer is gone) capture
	// share from sessions that can actually spend it.
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
		ss.demand = 0 // rebuilt by the observe loop over the zeroed trackers
		// Forget held acks with the rest of the peer state: the replacement
		// instance may hold nothing, and a stale ack would wrongly skip its
		// re-sync (the zeroed sessObjs below drop per-object acks too).
		ss.heldPending = map[string]wire.HeldVersion{}
		now := s.now()
		for key := range ss.objs {
			ss.objs[key] = sessObj{}
			ss.observeLocked(s.order[key], now)
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
// send must not look like a delivered one). If updates raced in while the
// send was in flight, the tracker restarts at the residual divergence
// between the canonical value and what was actually sent and the object is
// re-ranked from that residual.
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
		o := s.order[key]
		if ss.remoteID != "" && o.prov.passedThrough(ss.remoteID) {
			// Split horizon binds at send time: this object was queued
			// before feedback revealed the peer's identity, so
			// observeLocked could not exclude it. Drop it now, unsent and
			// uncharged, as the group path does per batch.
			ss.unscheduleLocked(key, s.now())
			s.mu.Unlock()
			continue
		}
		msg := wire.Refresh{
			SourceID: s.cfg.ID,
			ObjectID: o.id,
			// Stamp the cache identity learned from feedback (not the
			// local label): the advisory mismatch counter on the cache
			// then only fires on genuine miswiring, never on operators
			// labeling destinations differently than caches name
			// themselves.
			CacheID: ss.remoteID,
			// Provenance for multi-tier topologies: a relay re-exports with
			// the originating source, incremented hop count, relay path and
			// the origin's preserved version axis; locally produced values
			// carry the zero provenance (their origin axis IS Epoch/Version).
			Origin:        o.prov.Origin,
			Hops:          o.prov.Hops,
			Via:           o.prov.Via,
			OriginEpoch:   o.prov.Epoch,
			OriginVersion: o.prov.Version,
			Value:         o.value,
			Version:       o.version,
			Epoch:         s.started.UnixNano(),
			Threshold:     ss.eng.Threshold(),
			SentUnix:      s.cfg.Now().UnixNano(),
		}
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
		now := s.now()
		so := &ss.objs[key]
		so.sentVal = msg.Value
		so.sentVer = msg.Version
		// Residual divergence: updates that landed while the send was in
		// flight. The tracker restarts at the residual and the object is
		// re-ranked from it — a priority a racing Update computed against
		// the OLD sent-state must not linger in the heap, where it would
		// overstate the residual and bypass the threshold filter. At the
		// commit instant the area priority restarts at zero, so the object
		// leaves the queue until the next update re-ranks it (the §8.2
		// event-driven discipline; same as a zero-residual send).
		d := metric.Divergence(s.cfg.Metric, s.cfg.Delta,
			int(o.version-so.sentVer), o.value, so.sentVal)
		ss.demand += d - so.tracker.Current()
		so.tracker.Reset(now, d)
		ss.requeueLocked(o, now)
		ss.eng.OnRefreshSent(now)
		ss.eng.ClampThreshold()
		ss.refreshes++
		if ss.hyb != nil {
			ss.hyb.charge(key, 1)
		}
		s.mu.Unlock()
		budget--
	}
	s.mu.Lock()
	_, _, want := ss.eng.ShouldSend()
	ss.eng.SetLimited(want)
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
