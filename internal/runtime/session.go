package runtime

import (
	"sync/atomic"
	"time"

	"bestsync/internal/transport"
	"bestsync/internal/wire"
	"bestsync/internal/wire/codec"
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
	// been re-divided across the surviving destinations.
	Ended bool
	// Redialing reports a session whose connection is down and being
	// redialed with backoff: still alive, but unable to deliver until the
	// peer returns (the rebalancers treat its demand as zero meanwhile).
	Redialing  bool
	Refreshes  int
	Feedbacks  int
	SendErrors int
	Reconnects int
	// Pending counts what the destination still waits for: the objects it
	// lags on, plus, for a group of its own, its group's queue. Threshold is
	// its group's; both are zero on a poll-only session.
	Pending   int
	Threshold float64
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
	// same origin axis (cache-driven policies).
	PollOmits int
	// Grouped reports a member of the source's shared group: Threshold
	// mirrors the group's, and Pending counts only the objects it lags on —
	// the group's queue is reported once in SourceStats.Group.
	Grouped bool
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
	if h.epoch == 0 {
		return false // no ack recorded
	}
	return oe < h.epoch || (oe == h.epoch && ov <= h.ver)
}

// before reports whether n is a newer ack than h.
func (h heldAxis) before(n heldAxis) bool {
	return n.epoch > h.epoch || (n.epoch == h.epoch && n.ver > h.ver)
}

// syncSession is one downstream cache's link: the connection, its feedback,
// the cache's polls (answered from the canonical store) and redial. Its
// pushes are its group's (SessionGroup); the session keeps what is
// per-destination — held acks, the dirty set of a member that fell behind,
// and the counters.
//
// Locking: everything is guarded by the owning Source's mutex but the
// atomics, which the sender workers share. Poll replies are sent by the
// session's own goroutine outside the lock, so that cache-side back-pressure —
// the paper's network queueing — stalls just this session.
type syncSession struct {
	src  *Source
	dest Destination

	// Guarded by src.mu. group is nil only for a poll-only session and once
	// the session has ended or been removed. dest.Conn is guarded too: a
	// redial swaps it while the workers' senders and Close read it. rate and
	// weight are re-assigned by reallocateLocked whenever the topology or the
	// rebalancer moves shares.
	group         *SessionGroup
	rate          float64 // allocated share of the source bandwidth, msgs/s
	weight        float64 // effective weight behind rate at last allocation
	ended         bool    // loop exited permanently (no redial)
	redialing     bool    // connection down, redial loop running
	refreshes     int
	feedbacks     int
	sendErrors    int
	reconnects    int
	pollsAnswered int
	pollOmits     int
	heldSkips     int
	remoteID      string
	// held records, per queue key, the newest origin-axis version the cache
	// has ACKNOWLEDGED holding (wire.Feedback.Held), while it is at or ahead
	// of the canonical axis (the axis only moves forward, so an ack behind it
	// excludes nothing). A send whose axis the ack covers is skipped — the
	// cache provably has it — in broadcasts and catch-up, and by the whole
	// group when every member holds it (excludedLocked). nil until the first
	// ack arrives, so a session that is never acked pays nothing.
	held []heldAxis
	// heldPending buffers held-version acks for objects the source has not
	// produced yet (a cache can ack ahead of a relay's snapshot re-export);
	// Source.newObjLocked folds them in when the object appears, so the map
	// only ever holds ids that are not in src.objs.
	heldPending map[string]wire.HeldVersion
	// items is answerPoll's reply buffer for targeted polls, reused from poll
	// to poll: SendReply copies what it keeps. A discovery listing, as long
	// as the whole store, is allocated afresh rather than pinned here. known
	// is its index of a hinted poll's Known entries, cleared for each poll.
	items []wire.PollItem
	known map[string]wire.KnownVersion

	// Group-delivery state, guarded by src.mu; the atomics are shared with
	// the sender workers. worker is the one its sends queue on: a pool
	// worker in the shared group, its own otherwise. lag is the member's
	// dirty set over queue keys: objects it may not hold the group's values
	// of, drained by the flusher's catch-up.
	worker *groupWorker
	lag    keySet

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
		heldPending: map[string]wire.HeldVersion{},
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
}

// statsLocked snapshots the session counters. Caller holds src.mu.
func (ss *syncSession) statsLocked() SessionStats {
	pending, threshold, g := 0, 0.0, ss.group
	if g != nil {
		pending, threshold = ss.lag.n, g.eng.Threshold()
		if g != ss.src.group {
			pending += g.eng.Queue.Len()
		}
	}
	return SessionStats{
		CacheID:       ss.dest.CacheID,
		RemoteID:      ss.remoteID,
		Share:         ss.rate,
		Weight:        ss.weight,
		Ended:         ss.ended,
		Redialing:     ss.redialing,
		Grouped:       g != nil && g == ss.src.group,
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
}

// onFeedback applies one feedback message from this session's cache. It
// feeds the group's engine — every member's feedback moves the one group
// threshold — while held acks stay per-member, driving its exclusions.
func (ss *syncSession) onFeedback(f wire.Feedback) {
	s := ss.src
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	if f.CacheID != "" {
		ss.remoteID = f.CacheID
	}
	ss.feedbacks++
	if g := ss.group; g != nil {
		g.eng.OnFeedback(now)
		g.feedbacks++
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
// id is resolved once. The newest ack per object is kept, and only when it is
// at or ahead of the canonical origin axis. An object the group still owes
// and every member now excludes leaves the schedule on the spot (the group's
// exclusion rule) — this is what lets a relay restored from a stale snapshot
// stop re-exporting to a child that is already ahead. Caller holds src.mu.
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
	ack, p := heldAxis{h.Epoch, h.Version}, s.order.prov(o.key)
	p.Epoch, p.Version = s.originAxisLocked(o)
	if !ack.covers(p.Epoch, p.Version) || !ss.raiseHeldLocked(int(o.key), ack) {
		return
	}
	if g := ss.group; g != nil {
		if so := g.objs.at(int(o.key)); so.sentVer != o.version || so.sentVal != o.value {
			g.excludedLocked(o, &p, now)
		}
	}
}

// loop is the session's one goroutine: it folds in its cache's feedback,
// answers its polls and redials, so one blocked connection stalls only its
// own session. What it does is a matter of which select cases are live — a
// nil channel never fires:
//
//   - Polls are read under every polling policy and only while the session's
//     bucket covers an answer, so an answer the source cannot afford stays in
//     the channel, where transport back-pressure drops the cache's best-effort
//     polls until it can (the cache re-polls on its period). The reply alone
//     is counted: the request is the cache's to pay.
//   - The tick runs only under a polling policy: it accrues the session's
//     bucket at the allocated rate, re-read every tick because shares move
//     at runtime, and wakes the loop to look at the bucket again.
//
// The feedback channel closing is the one disconnect signal under every
// policy. Redial (when configured) re-establishes the connection under the
// standard full-resync contract — a group member is skipped by every
// broadcast meanwhile and lags on every object once back — and a session
// without a redial hook ends, leaving its group. A polling cache is re-sent
// nothing it did not ask for.
func (ss *syncSession) loop() {
	defer close(ss.done)
	s := ss.src
	var tick <-chan time.Time
	if s.cfg.Policy.CacheDriven() {
		t := time.NewTicker(s.cfg.Tick)
		defer t.Stop()
		tick = t.C
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
		s.mu.Unlock()
		fb = conn.Feedback()
		if s.cfg.Policy.CacheDriven() {
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
		if budget.tokens < 1 {
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
				codec.ReleaseFeedback(&f)
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
			budget.tokens -= float64(ss.answerPoll(pc, p))
			codec.ReleasePoll(&p)
		case <-tick:
			s.mu.Lock()
			rate := ss.rate
			s.mu.Unlock()
			budget.accrue(rate, s.cfg.Tick.Seconds(), s.cfg.Tick)
		}
	}
}

// answerPoll builds and sends the reply to one poll from the canonical
// store, returning the budget it spent: one unit per targeted item, and a
// flat one unit for a discovery reply — the full-store listing is universe
// METADATA (the cache registers ids from it, never values), so charging it
// per item would bill a control-plane message at data-plane rates and
// starve the targeted replies that actually move values. An empty object
// list is the discovery poll: the whole store is returned with All set.
// Counters commit only after a successful send; Refreshes counts targeted
// items only (the value transfers).
func (ss *syncSession) answerPoll(pc transport.PollConn, p wire.Poll) int {
	s := ss.src
	s.mu.Lock()
	if p.CacheID != "" {
		ss.remoteID = p.CacheID // polls identify the peer like feedback does
	}
	var known map[string]wire.KnownVersion
	if len(p.Known) > 0 {
		if ss.known == nil {
			ss.known = make(map[string]wire.KnownVersion, len(p.Known))
		}
		known = ss.known
		clear(known)
		for _, k := range p.Known {
			known[k.ObjectID] = k
		}
	}
	epoch := s.started.UnixNano()
	reply := wire.PollReply{SourceID: s.cfg.ID, SentUnix: s.cfg.Now().UnixNano()}
	if len(p.ObjectIDs) == 0 {
		reply.All = true
		reply.Items = make([]wire.PollItem, 0, s.order.n)
		for o := range s.order.all() {
			if item, ok := ss.answerLocked(o, known, epoch); ok {
				reply.Items = append(reply.Items, item)
			}
		}
	} else {
		reply.Items = ss.items[:0]
		for _, id := range p.ObjectIDs {
			if o, _ := s.objLocked(id); o != nil {
				if item, ok := ss.answerLocked(o, known, epoch); ok {
					reply.Items = append(reply.Items, item)
				}
			} else {
				reply.Items = append(reply.Items, wire.PollItem{ObjectID: id})
			}
		}
		ss.items = reply.Items
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
	s.mu.Lock()
	defer s.mu.Unlock()
	ss.pollsAnswered++
	if reply.All {
		return 1 // metadata listing, not value transfers
	}
	ss.refreshes += len(reply.Items)
	return len(reply.Items)
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
			if oe, ov := s.originAxisLocked(o); (heldAxis{k.Epoch, k.Version}).covers(oe, ov) {
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
// the surviving destinations: a session that can never send again must not
// keep a slice of the budget (nor skew the aggregate threshold mean — see
// Source.Stats). It leaves its group, and a group of its own goes with it.
// Its per-object state is released — the parked acks and the poll-reply
// buffer too, which nothing would drain — while the counters stay for the
// ENDED stats row.
func (ss *syncSession) end() {
	s := ss.src
	s.mu.Lock()
	s.leaveLocked(ss)
	ss.ended = true
	ss.held, ss.lag = nil, keySet{}
	ss.heldPending, ss.items, ss.known = nil, nil, nil
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
// returning false when the source shuts down first. On success the member
// lags on every object: the peer may have restarted empty. For a peer that
// in fact kept its store, the re-sends are harmless — the cache's (epoch,
// version) staleness guards drop anything it already holds.
func (ss *syncSession) redial() bool {
	s := ss.src
	// Release the dead connection first: a Batcher wrapping it keeps a
	// flush goroutine (and retries its re-buffered batch) until closed.
	// Close is idempotent on every provided transport, so racing
	// Source.Close's own snapshot-and-close is harmless. While the redial
	// runs, the session is flagged so the rebalance pass does not let its
	// group's ever-growing demand (nothing resets while the peer is gone)
	// capture share from destinations that can actually spend it, and so
	// that broadcasts skip it: a group of its own cuts nothing meanwhile.
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
		if g := ss.group; g != nil {
			g.lagLocked(ss, nil)
		}
		s.mu.Unlock()
		return true
	}
}

// Destination describes one downstream cache of a fan-out source.
type Destination struct {
	// CacheID is the local label for this destination in stats and
	// diagnostics. Outgoing refreshes are stamped with the cache's
	// self-reported identity once feedback reveals it (SessionStats
	// distinguishes the two as CacheID vs RemoteID). Defaults to
	// "cache-<i>".
	CacheID string
	// Conn is the connection to the cache. Its group sends it batches of up
	// to GroupConfig.MaxBatch refreshes, pre-encoded for a FrameSender.
	Conn transport.SourceConn
	// Weight is the destination's share weight for dividing
	// SourceConfig.Bandwidth across destinations (Section 7 share
	// allocation); non-positive means 1 (equal shares when all are
	// defaulted).
	Weight float64
	// Redial, when non-nil, re-establishes the connection after the
	// current one dies: the session retries it with exponential backoff
	// (50 ms doubling to 5 s) until it succeeds or the source closes, and
	// the destination then lags on every object, so a peer that restarted
	// empty is fully re-synchronized. Return a connection wrapped the same
	// way as Conn. Nil keeps the old behavior: a dead connection
	// permanently ends its session.
	Redial func() (transport.SourceConn, error)
}
