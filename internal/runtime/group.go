package runtime

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bestsync/internal/transport"
	"bestsync/internal/wire"
	"bestsync/internal/wire/codec"
)

// GroupConfig configures push delivery. Every push-policy destination is a
// member of exactly one SessionGroup, which runs ONE scheduling pass and ONE
// encode per batch and fans the pre-encoded frame to its members through
// sender workers. With Enabled, the default-weight destinations share one
// group: origin cost per batch drops from O(members × schedule+encode) to one
// schedule+encode plus O(members) queue hand-offs. Every other push
// destination is a group of its own, with a sender worker of its own, so a
// slow or stalled cache never holds back another.
type GroupConfig struct {
	// Enabled puts the default-weight destinations of a PolicyPush source in
	// one shared group. Cache-driven policies have no source-side scheduling
	// and no groups at all.
	Enabled bool
	// Workers is the size of the shared group's sender worker pool (default
	// 4). Its members are spread across the workers, so one back-pressured
	// connection stalls at most the members on its worker, and only until
	// their queues fill and they lag (see Queue).
	Workers int
	// Queue is the per-member bound on outstanding group batches (default
	// 8). A member whose connection cannot drain Queue batches lags rather
	// than back-pressuring the cohort: each batch it cannot take marks its
	// objects dirty for it, to be caught up to what the group holds later.
	// When no member can take a batch, the group holds back instead.
	Queue int
	// MaxBatch caps refreshes per group batch (default 64): a full frame,
	// and the queued traffic that wakes an early pass (see wakeLocked).
	MaxBatch int
}

func (c GroupConfig) withDefaults() GroupConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Queue <= 0 {
		c.Queue = 8
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	return c
}

// GroupStats is the shared session group's slice of SourceStats.
type GroupStats struct {
	// Members is the member count; a lagging or redialing member stays one.
	Members int
	// Batches counts group batches scheduled; Scheduled counts the
	// refreshes inside them (one per object pick, independent of cohort
	// size); Delivered counts member deliveries (refreshes × recipients).
	Batches   int
	Scheduled int
	Delivered int64
	// Fallbacks counts member-filtered sends: a batch that would have
	// carried a held-acked or split-horizoned object to a member is
	// re-cut for that member alone, the rest of the cohort still shares
	// the one frame.
	Fallbacks int
	// Detaches counts members going from caught up to lagging (a batch they
	// could not take, a redial or a late join marked objects dirty);
	// Rejoins counts lagging members whose dirty set emptied.
	Detaches int
	Rejoins  int
	// QueueOverruns counts the batches a member could not take because
	// GroupConfig.Queue of its batches were still unsent.
	QueueOverruns int
	SendErrors    int64
	// SplicedBatches counts broadcasts that bypassed the flush scheduler
	// entirely: a relay's inbound frame was splice-patched and fanned to
	// the cohort directly from the apply path (Source.forwardSpliced).
	// SplicedRefreshes counts the refreshes those broadcasts carried (both
	// are also folded into Batches/Scheduled).
	SplicedBatches   int
	SplicedRefreshes int
	// EarlyBatches counts batches the flusher cut ahead of its tick, on an
	// early pass (also folded into Batches).
	// Batches − SplicedBatches − EarlyBatches left on a tick: the ratio
	// says whether the tick or the size trigger delivers.
	EarlyBatches int
	// Pending and Threshold describe the shared scheduling engine.
	Pending   int
	Threshold float64
	// MemberShare is the per-member send rate (the group's aggregate
	// Section 7 share divided by the member count); the group schedules at
	// this rate because one scheduled refresh reaches every member.
	MemberShare float64
}

const (
	stallNone int32 = iota
	stallWaiting
	stallResume
)

// groupConsumerID is the rebalancer identity of the shared group: it competes
// for bandwidth as one consumer whose base weight is its member count, so its
// members and the groups of one (consumer: the destination's CacheID, base:
// its Weight) keep comparable per-destination shares.
const groupConsumerID = "(group)"

// groupBatch is one broadcast's shared payload: the refresh slice every
// member send references and, when any member speaks the binary framing,
// the one pre-encoded frame. It is reference-counted so the pooled buffers
// return exactly when the last member send has finished, and pooled itself
// so steady-state broadcasting allocates nothing.
type groupBatch struct {
	g     *SessionGroup
	rs    []wire.Refresh
	frame *codec.Frame
	refs  atomic.Int32
}

var groupBatchPool = sync.Pool{New: func() any { return &groupBatch{} }}

func (b *groupBatch) release() {
	if b.refs.Add(-1) != 0 {
		return
	}
	if b.frame != nil {
		b.frame.Release()
		b.g.framesLive.Add(-1)
		b.frame = nil
	}
	b.rs = b.rs[:0]
	b.g = nil
	groupBatchPool.Put(b)
}

// sendItem is one member's send, queued to a sender worker: a shared batch
// (its frame to a FrameSender, its refreshes otherwise) or, batch nil, rs.
type sendItem struct {
	g     *SessionGroup
	sess  *syncSession
	conn  transport.SourceConn
	batch *groupBatch
	rs    []wire.Refresh
	n     int // refreshes carried (counter commit on success)
}

// groupWorker drains a FIFO of sendItems. The queue is structurally
// unbounded; the per-member inflight counters bound it at members × Queue.
type groupWorker struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []sendItem
	head   int
	closed bool
	done   chan struct{}
	// members counts the shared-group members sending on this pool worker
	// (guarded by src.mu).
	members int
	// The run being sent and its frames: the worker goroutine's scratch.
	taken  []sendItem
	frames []*codec.Frame
}

// startWorker starts a sender worker.
func startWorker() *groupWorker {
	w := &groupWorker{done: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)
	go w.run()
	return w
}

// push queues items. A closed worker — its member left, or the source
// closed, while the items were planned — drops them and their references.
func (w *groupWorker) push(items []sendItem) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		for _, it := range items {
			if it.batch != nil {
				it.batch.release()
			}
		}
		return
	}
	w.queue = append(w.queue, items...)
	w.cond.Signal()
	w.mu.Unlock()
}

// close lets the worker exit once it has sent what is queued. Idempotent.
func (w *groupWorker) close() {
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
}

// fanScratch is the sends of one fanoutLocked or catchUp call, planned under
// the source mutex into one bucket per worker and dispatched outside it; its
// reuse keeps steady-state fan-out allocation-free. Caller-supplied because
// fan-outs run concurrently — the flusher uses the group's own, a splice call
// (on the intake cache's dispatcher) a pooled one.
type fanScratch struct {
	buckets []fanBucket
	n       int // buckets in use
}

type fanBucket struct {
	w     *groupWorker
	items []sendItem
}

// add queues it for its member's worker at the next dispatch.
func (fs *fanScratch) add(it sendItem) {
	i := 0
	for i < fs.n && fs.buckets[i].w != it.sess.worker {
		i++
	}
	if i == fs.n {
		if i == len(fs.buckets) {
			fs.buckets = append(fs.buckets, fanBucket{})
		}
		fs.buckets[i].w = it.sess.worker
		fs.n++
	}
	fs.buckets[i].items = append(fs.buckets[i].items, it)
}

// dispatch hands every item queued in fs to its worker.
func (fs *fanScratch) dispatch() {
	for i := range fs.buckets[:fs.n] {
		b := &fs.buckets[i]
		b.w.push(b.items)
		b.w, b.items = nil, b.items[:0] // the worker queue copied every item
	}
	fs.n = 0
}

// SessionGroup is one receiver cohort of a source — the shared group, or one
// destination on its own: ONE scheduler (sched), fed once per update, one
// token bucket and one member list. Per-member state (held acks, split
// horizon, the dirty set of a member that fell behind) stays on the members
// and is applied per batch and per tick. A group is plain data guarded by
// src.mu, all but the atomics: the source's one flusher goroutine runs every
// group's passes, planning each broadcast under the lock and handing the
// batch to its members' sender workers outside it, so a slow member's TCP
// back-pressure never holds the scheduler.
type SessionGroup struct {
	src *Source
	cfg GroupConfig

	// Guarded by src.mu.
	sched
	members   []*syncSession
	rate      float64 // per-member share, msgs/s (aggregate / members)
	feedbacks int     // member feedback heard
	windowFb  int     // feedbacks already folded into the rebalancer
	batches   int
	scheduled int
	fallbacks int
	lags      int // members gone from caught up to lagging (GroupStats.Detaches)
	caughtUp  int // lagging members whose dirty set emptied (GroupStats.Rejoins)
	overruns  int
	// budget is the group's send-token bucket, accrued at the per-member
	// rate by accrueLocked and spent one token per scheduled refresh by both
	// the flusher (broadcastOnce) and the splice fast path
	// (Source.forwardSpliced) — one bucket, so splicing never overspends the
	// share the rebalancer granted the group.
	budget     tokenBucket
	lastAccrue float64 // protocol time of the last budget accrual
	// splicedBatches/splicedRefreshes count forwardSpliced broadcasts.
	splicedBatches   int
	splicedRefreshes int
	earlyBatches     int
	// The size trigger's state (see wakeLocked): waking is set while an
	// early-pass request is outstanding, disarmed from an early pass that
	// found the queue long only with under-threshold residuals to the next
	// tick pass. carry is the length of the short batch that ended the last
	// pass: refreshes that left in a partial frame still count toward the
	// next frame.
	waking, disarmed bool
	carry            int
	restricted       map[string]struct{} // per-batch split-horizon identity set (reused)
	// A pass's scratch, reused, so passMu keeps the flusher's pass and one run
	// by hand apart: the scheduled objects' queue keys and outgoing
	// provenance, and its fan-out working set. dropBuf is one member's
	// exclusion mask, valid between memberDropsLocked and the next call, so
	// it is shared by every fan-out under the lock.
	passMu  sync.Mutex
	keyBuf  []int
	provBuf []Provenance
	dropBuf []bool
	fan     fanScratch

	// Atomics shared with the sender workers. stall is the back-pressure
	// handshake of roomLocked: stallWaiting while a pass has stopped with
	// work queued because no member could take a batch, stallResume once a
	// worker freed a slot and asked the flusher to go on.
	stall      atomic.Int32
	delivered  atomic.Int64
	sendErrors atomic.Int64
	// framesLive tracks shared frames created minus fully released — zero
	// whenever the group is quiescent. Tests assert on it to prove the
	// refcounting neither leaks nor double-releases under member failures,
	// overruns and close.
	framesLive atomic.Int64
}

// newSessionGroup returns an empty group of s, holding a never-sent record
// for every object s already has. Caller holds s.mu (or owns s outright).
func newSessionGroup(s *Source) *SessionGroup {
	g := &SessionGroup{
		src:        s,
		cfg:        s.cfg.Group.withDefaults(),
		sched:      newSched(&s.cfg),
		restricted: map[string]struct{}{},
		lastAccrue: s.now(),
	}
	g.objs.grow(s.order.n)
	return g
}

// joinLocked puts the new push destination ss into its group for its whole
// life: the shared group when it has the default weight, a new group of its
// own otherwise. A shared-group member sends on the least-loaded worker of
// the pool, lags on every stored object and is caught up to what the group
// committed; a group of its own sends on a worker of its own and holds
// nothing yet, so every stored object is observed as never sent. Nothing to
// do under a cache-driven policy. Caller holds s.mu and reallocates after.
func (s *Source) joinLocked(ss *syncSession, now float64) {
	if !s.cfg.Policy.Pushes() {
		return
	}
	g := s.group
	if g == nil || ss.dest.Weight != 1 {
		g = newSessionGroup(s)
		s.groups = append(s.groups, g)
	}
	ss.group = g
	g.members = append(g.members, ss)
	if g == s.group {
		ss.worker = slices.MinFunc(s.workers, func(a, b *groupWorker) int { return a.members - b.members })
		ss.worker.members++
		g.lagLocked(ss, nil)
		return
	}
	ss.worker = startWorker()
	for o := range s.order.all() {
		g.observeLocked(o, now)
	}
}

// leaveLocked takes session ss out of its group as it leaves the topology
// (removed, or gone with no redial hook); a group of its own goes with it,
// and its worker exits once it has sent what is queued. Caller holds s.mu
// and reallocates after.
func (s *Source) leaveLocked(ss *syncSession) {
	g := ss.group
	if g == nil {
		return
	}
	ss.group = nil
	g.members = slices.DeleteFunc(g.members, func(m *syncSession) bool { return m == ss })
	if g == s.group {
		ss.worker.members--
		return
	}
	s.groups = slices.DeleteFunc(s.groups, func(h *SessionGroup) bool { return h == g })
	ss.worker.close()
}

// lagLocked marks the objects with queue keys keys — every object when keys
// is nil — dirty for member m: it may not hold the values the group
// committed for them. Caller holds src.mu.
func (g *SessionGroup) lagLocked(m *syncSession, keys []int) {
	was := m.lag.n
	if keys == nil {
		m.lag.fill(g.src.order.n)
	}
	for _, k := range keys {
		m.lag.set(k)
	}
	if was == 0 && m.lag.n > 0 {
		g.lags++
	}
}

// flushLoop is the source's one flusher, and it sends on size or time: every
// Tick it runs a tick pass of each group, which catches lagging members up
// and sends whatever is sendable; an early pass, requested by the update
// path once a frame's worth of traffic is queued (wakeLocked), sends
// whatever is sendable too, so no refresh over threshold that the bucket can
// pay for waits for the tick. Budget accrues at the PER-MEMBER rate: one
// scheduled refresh reaches every member, so charging the aggregate rate per
// broadcast would overspend egress by the member count. The bucket itself
// lives on the group (g.budget) so the splice fast path spends from the same
// allowance between ticks.
func (s *Source) flushLoop() {
	defer close(s.flushed)
	ticker := time.NewTicker(s.cfg.Tick)
	defer ticker.Stop()
	for {
		waking := false
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		case <-s.wake:
			waking = true
		}
		for _, p := range s.snapshotGroups(waking) {
			p.g.pass(p.early)
		}
	}
}

// groupPass is one pass the flusher runs: a group, and whether it is early.
type groupPass struct {
	g     *SessionGroup
	early bool
}

// snapshotGroups returns the passes a flusher wake-up runs — every group's
// tick pass, or with waking only those that asked to be resumed (the rest of
// a pass that stopped for room, which goes like a tick pass) or for an early
// pass — in the flusher's reused slice. A group removed after the snapshot
// has no member to cut anything for.
func (s *Source) snapshotGroups(waking bool) []groupPass {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.passing = s.passing[:0]
	for _, g := range s.groups {
		if tick := !waking || g.stall.CompareAndSwap(stallResume, stallNone); tick || g.waking {
			s.passing = append(s.passing, groupPass{g, !tick})
		}
	}
	return s.passing
}

// wakeLocked is the size trigger, run by the update path after it has
// observed its objects: it asks the flusher for an early pass once the queue
// plus the carry make GroupConfig.MaxBatch refreshes — a pass that ended on a
// partial of k fires again at MaxBatch − k queued, one pass per frame of
// traffic — and the shared bucket can pay for a frame. The queue length is
// tested first and nearly always fails, so an update pays one comparison; now
// is the caller's reading of the clock. A bucket whose burst is under a frame
// (a budget-limited group) never passes: there every pass is a tick pass. A
// stalled group waits for its sender workers instead. The flusher re-checks
// the bucket and the room under the lock, with the bucket actually accrued.
// Caller holds src.mu.
func (g *SessionGroup) wakeLocked(now float64) {
	if g.eng.Queue.Len()+g.carry < g.cfg.MaxBatch || g.waking || g.disarmed {
		return
	}
	frame := float64(g.cfg.MaxBatch)
	if tokenBurst(g.rate, g.src.cfg.Tick) < frame || g.budget.tokens+(now-g.lastAccrue)*g.rate < frame ||
		g.stall.Load() != stallNone {
		return
	}
	g.waking = true
	select {
	case g.src.wake <- struct{}{}:
	default:
	}
}

// pass runs one scheduling pass, batch after batch, highest priority first,
// until one comes out short: nothing more is over threshold, the bucket ran
// dry or no member has room. Early and tick passes cut alike; only a tick
// pass first catches lagging members up, so that a saturated bucket cannot
// starve them; their free queue slots bound what it spends on them.
func (g *SessionGroup) pass(early bool) {
	g.passMu.Lock()
	defer g.passMu.Unlock()
	if !early {
		g.catchUp()
	}
	for g.broadcastOnce(early) {
	}
}

// accrueLocked tops the shared token bucket up for the time elapsed since
// the last accrual, clamped to the burst allowance. Called at the top of
// every spend site (broadcastOnce, forwardSpliced) rather than only on the
// tick, so splice broadcasts landing between ticks draw on real elapsed
// budget instead of a stale snapshot. Caller holds src.mu.
func (g *SessionGroup) accrueLocked(now float64) {
	if dt := now - g.lastAccrue; dt > 0 {
		g.lastAccrue = now
		g.budget.accrue(g.rate, dt, g.src.cfg.Tick)
	}
}

// scheduleLocked commits object o as broadcast at now, takes the threshold's
// α step for the send (T_j ·= α·β) and charges the bucket for it. Sent-state
// is committed at schedule time, not delivery time: the group never retries
// or reschedules for one member. A member that misses a batch lags instead (a
// queue overrun marks the batch's objects, a failed send's redial marks them
// all) and is caught up from its dirty set. Caller holds src.mu.
func (g *SessionGroup) scheduleLocked(o *objState, now float64) {
	g.commit(o, now)
	g.eng.OnRefreshSent(now)
	g.eng.ClampThreshold()
	g.scheduled++
	g.budget.tokens--
}

// observeLocked folds a canonical-state change for object o into the group,
// unless the exclusion rule takes o out of the schedule. Caller holds src.mu.
func (g *SessionGroup) observeLocked(o *objState, now float64) {
	p := g.src.order.prov(o.key)
	p.Epoch, p.Version = g.src.originAxisLocked(o)
	if !g.excludedLocked(o, &p, now) {
		g.observe(o, now)
	}
}

// excludedLocked is the group's exclusion rule for object o, whose outgoing
// provenance with its origin axis is p, applied at observe, when a pass or a
// splice picks o, and when an ack arrives: when every member that can receive
// excludes o (split horizon, or an ack at or ahead of p's axis), the group
// takes o out of the schedule without a token or an α step and reports true.
// Split horizon alone unschedules it, sent-state untouched; an ack commits it
// as delivered, a held skip for every member whose ack covers it. The test
// stops at the first member that takes o. Caller holds src.mu.
func (g *SessionGroup) excludedLocked(o *objState, p *Provenance, now float64) bool {
	key, receivers, held := int(o.key), false, false
	for _, m := range g.members {
		if m.redialing {
			continue
		}
		ex, h := m.excludesLocked(key, p, m.remoteID != "")
		if !ex {
			return false
		}
		receivers, held = true, held || h
	}
	switch {
	case !receivers:
		return false
	case !held:
		g.unschedule(key, now)
		return true
	}
	g.commit(o, now)
	for _, m := range g.members {
		if _, h := m.excludesLocked(key, p, m.remoteID != ""); h && !m.redialing {
			m.heldSkips++
		}
	}
	return true
}

// roomLocked reports whether some member can take a batch now: one that is
// not redialing and has a free queue slot. A group none of whose members can
// cuts nothing, so what it would commit stays in its scheduler, where later
// updates coalesce with it — the back-pressure a blocked send once exerted.
// Members that are only full, with work queued, mark the group stalled for
// the sender worker that frees a slot to resume the pass; a slot freed while
// marking is seen by the second look. Caller holds src.mu.
func (g *SessionGroup) roomLocked() bool {
	for look := 0; ; look++ {
		full := false
		for _, m := range g.members {
			if !m.redialing && int(m.inflight.Load()) < g.cfg.Queue {
				return look == 0 || g.stall.CompareAndSwap(stallWaiting, stallNone)
			}
			full = full || !m.redialing
		}
		if look == 1 || !full || g.eng.Queue.Len() == 0 {
			return false
		}
		g.stall.Store(stallWaiting)
	}
}

// broadcastOnce cuts one batch of a pass and fans it to every member: the
// shared refresh slice is built and committed under the source mutex, the
// frame is encoded once outside it, and each member's send is queued to its
// sharded worker. A group no member of which has room cuts nothing. It
// returns false when the batch came out short of MaxBatch — nothing more was
// over threshold, the bucket ran dry or there was no room — which ends the
// pass.
func (g *SessionGroup) broadcastOnce(early bool) bool {
	s := g.src
	b := groupBatchPool.Get().(*groupBatch)
	b.g = g
	b.refs.Store(1) // the flusher's own reference, dropped after enqueueing

	s.mu.Lock()
	now, sentUnix := s.clock()
	g.accrueLocked(now)
	epoch, stamp := s.started.UnixNano(), ""
	keys, provs := g.keyBuf[:0], g.provBuf[:0]
	room := g.roomLocked()
	if room && g != s.group {
		// A group of one addresses its batches to its member. The shared
		// group's frame, which every member takes, carries no stamp: caches
		// treat an empty one as unaddressed, never as misrouted, and the
		// member-filtered fallback copies are stamped normally.
		stamp = g.members[0].remoteID
	}
	for room && g.budget.tokens >= 1 && len(b.rs) < g.cfg.MaxBatch {
		key, _, ok := g.eng.ShouldSend()
		if !ok {
			break
		}
		o := s.order.at(key)
		prov := s.order.prov(o.key)
		ref := g.refresh(o, &prov, stamp, epoch, sentUnix)
		prov.Epoch, prov.Version = s.originAxisLocked(o)
		if g.excludedLocked(o, &prov, now) {
			continue
		}
		b.rs = append(b.rs, ref)
		keys, provs = append(keys, key), append(provs, prov)
		g.scheduleLocked(o, now)
	}
	g.keyBuf, g.provBuf = keys, provs
	full := len(b.rs) == g.cfg.MaxBatch
	if !full {
		// The pass ends with this batch, whose length the next frame counts.
		// A tick pass re-arms the size trigger. An early pass that stopped
		// with room and budget in hand left only under-threshold residuals:
		// if they alone still meet the trigger, it disarms until the next
		// tick, so residuals cannot wake the flusher once per update.
		g.carry = len(b.rs)
		if early {
			g.waking = false
		}
		g.disarmed = early && room && g.budget.tokens >= 1 && g.eng.Queue.Len()+g.carry >= g.cfg.MaxBatch
		g.limit(g.budget.tokens)
	}
	if len(b.rs) == 0 {
		s.mu.Unlock()
		b.g = nil
		groupBatchPool.Put(b)
		return false
	}
	if early {
		g.earlyBatches++
	}
	g.fanoutLocked(&g.fan, b, keys, provs, nil, func() *codec.Frame {
		return codec.NewBatchFrame(b.rs, sentUnix)
	})
	return full
}

// fanoutLocked delivers one scheduled batch to every member — the one path
// from "these objects were committed" to the sender workers, whatever
// scheduled them. keys and provs are the batch's queue keys and outgoing
// provenance, in batch order. The two callers differ only in where the bytes
// come from: encode builds the shared frame (encode-once for the flusher, a
// splice of the inbound frame for a relay), and decode, when non-nil, builds
// the decoded form b.rs lazily — the splice path has none until a member
// without a FrameSender or an exclusion that actually fires needs it. Caller
// holds src.mu with the batch scheduled and b holding the caller's one
// reference; fanoutLocked releases both.
func (g *SessionGroup) fanoutLocked(fs *fanScratch, b *groupBatch, keys []int, provs []Provenance,
	decode func() []wire.Refresh, encode func() *codec.Frame) {
	s := g.src
	g.batches++
	// Split horizon works on the OUTGOING provenance (origin + via; on a
	// relay that already ends with this node's id — no member carries it).
	g.restrictLocked(provs)

	// Plan each member's send under the lock; execute outside it.
	needFrame, needDecoded := false, false
	for _, m := range g.members {
		switch {
		case m.redialing:
			continue // its redial marks every object dirty
		case int(m.inflight.Load()) >= g.cfg.Queue:
			// The member's connection is not draining: it lags on this
			// batch rather than back-pressuring the cohort.
			g.overruns++
			g.lagLocked(m, keys)
			continue
		}
		it := sendItem{g: g, sess: m, conn: m.dest.Conn, batch: b, n: len(keys)}
		switch dropped := g.memberDropsLocked(m, keys, provs); {
		case dropped == len(keys):
			continue // everything in this batch is excluded for the member
		case dropped > 0:
			if len(b.rs) == 0 {
				b.rs = decode()
			}
			it.batch, it.rs = nil, memberCopy(b.rs, g.dropBuf, dropped, m.remoteID)
			it.n = len(it.rs)
			g.fallbacks++
		default:
			// Local and Batcher members need the decoded form.
			_, frames := it.conn.(transport.FrameSender)
			needFrame, needDecoded = needFrame || frames, needDecoded || !frames
			b.refs.Add(1)
		}
		m.inflight.Add(1)
		fs.add(it)
	}
	s.mu.Unlock()

	if needFrame {
		b.frame = encode()
		g.framesLive.Add(1)
	}
	if needDecoded && len(b.rs) == 0 {
		b.rs = decode()
	}
	fs.dispatch()
	b.release()
}

// catchUp opens a tick pass: it cuts member-addressed batches for lagging
// members while a member has free queue slots and the bucket can pay —
// 1/len(members) token a refresh, as a broadcast token is len(members)
// messages. It never commits to the group scheduler or moves the threshold.
// A member is sent the group's committed copy, so that the group's one
// sent-state describes it again: rebuilt from the group's record for a
// locally produced object. A relayed one's committed origin axis is not kept:
// it is sent while its value is the committed one, and otherwise stays dirty
// until it is again. An excluded object (split horizon, an ack at or ahead of
// the axis) leaves the set at no cost.
func (g *SessionGroup) catchUp() {
	s := g.src
	s.mu.Lock()
	now, sentUnix := s.clock()
	g.accrueLocked(now)
	cost, epoch := 1/float64(len(g.members)), s.started.UnixNano()
	for _, m := range g.members {
		// Each dirty key is taken once a pass; one that must wait goes back.
		todo := m.lag.n
		for todo > 0 && !m.redialing && int(m.inflight.Load()) < g.cfg.Queue && g.budget.tokens >= cost {
			rs := make([]wire.Refresh, 0, min(todo, g.cfg.MaxBatch))
			for ; todo > 0 && len(rs) < g.cfg.MaxBatch && g.budget.tokens >= cost; todo-- {
				k, _ := m.lag.pop()
				o, prov, so := s.order.at(k), s.order.prov(int32(k)), g.objs.at(k)
				if prov.Epoch != 0 && so.sentVer != 0 && o.version != so.sentVer && o.value != so.sentVal {
					m.lag.set(k) // relayed, and moved off the committed value
					continue
				}
				if m.lag.n == 0 {
					g.caughtUp++
				}
				// Skipped: never sent to the cohort (its first broadcast is
				// queued), or excluded.
				if so.sentVer == 0 {
					continue
				}
				ref := g.refresh(o, &prov, m.remoteID, epoch, sentUnix)
				if prov.Epoch == 0 {
					ref.Value, ref.Version = so.sentVal, so.sentVer
				}
				prov.Epoch, prov.Version = ref.OriginAxis()
				switch ex, held := m.excludesLocked(k, &prov, m.remoteID != ""); {
				case !ex:
					rs = append(rs, ref)
					g.budget.tokens -= cost
				case held:
					m.heldSkips++
				}
			}
			if len(rs) == 0 {
				break // everything left was skipped or waits
			}
			m.inflight.Add(1)
			g.fan.add(sendItem{g: g, sess: m, conn: m.dest.Conn, rs: rs, n: len(rs)})
		}
	}
	s.mu.Unlock()
	g.fan.dispatch()
}

// restrictLocked rebuilds the split-horizon identity set for a batch: every
// id on its items' outgoing provenance (origin and relay path). Empty
// whenever every value is locally produced (the common case at an origin),
// which makes the per-member check in memberDropsLocked a two-flag test.
// Items of one batch mostly share one origin and one path (the same slice,
// see viaMemo), so a repeat of the previous item's is skipped without
// touching the set. Caller holds src.mu.
func (g *SessionGroup) restrictLocked(provs []Provenance) {
	clear(g.restricted)
	var last *Provenance
	for i := range provs {
		p := &provs[i]
		if p.Origin != "" && (last == nil || p.Origin != last.Origin) {
			g.restricted[p.Origin] = struct{}{}
		}
		if len(p.Via) > 0 && (last == nil || len(last.Via) != len(p.Via) || &last.Via[0] != &p.Via[0]) {
			for _, v := range p.Via {
				g.restricted[v] = struct{}{}
			}
		}
		last = p
	}
}

// memberDropsLocked decides a member's view of a batch from what the caller
// already has in hand — the items' queue keys and outgoing provenance —
// without looking at any refresh. It returns how many items must be withheld
// from the member and marks them in g.dropBuf (aligned with keys/provs; valid
// until the next call): split horizon (the member produced or already relayed
// the value, its loop guard would reject the send anyway) and held-skips (the
// member acknowledged holding this origin version or newer; a send would be
// dropped as stale there). Zero means the member takes the shared batch
// unfiltered — the fast path, and the only one a member whose acks all sit at
// or behind the canonical axis ever takes. Caller holds src.mu.
func (g *SessionGroup) memberDropsLocked(m *syncSession, keys []int, provs []Provenance) int {
	restricted := false
	if m.remoteID != "" {
		_, restricted = g.restricted[m.remoteID]
	}
	if !restricted && m.held == nil {
		return 0
	}
	g.dropBuf = slices.Grow(g.dropBuf[:0], len(provs))[:len(provs)]
	drops := g.dropBuf
	dropped := 0
	for i := range provs {
		ex, held := m.excludesLocked(keys[i], &provs[i], restricted)
		if drops[i] = ex; ex {
			dropped++
		}
		if held {
			m.heldSkips++
		}
	}
	return dropped
}

// excludesLocked reports whether member m must not be sent the value with
// queue key key and outgoing provenance p — split horizon (tested if horizon)
// or an ack at or ahead of p's origin axis — and whether by the ack, a held
// skip. Caller holds src.mu.
func (m *syncSession) excludesLocked(key int, p *Provenance, horizon bool) (excluded, held bool) {
	if horizon && p.passedThrough(m.remoteID) {
		return true, false
	}
	held = key < len(m.held) && m.held[key].covers(p.Epoch, p.Version)
	return held, held
}

// memberCopy builds the member-specific copy of a batch: rs without the
// dropped items (drops is aligned with rs), addressed to the member.
func memberCopy(rs []wire.Refresh, drops []bool, dropped int, remoteID string) []wire.Refresh {
	out := make([]wire.Refresh, 0, len(rs)-dropped)
	for i := range rs {
		if !drops[i] {
			out = append(out, rs[i])
			out[len(out)-1].CacheID = remoteID
		}
	}
	return out
}

// send executes a run of member sends — one item, or shared frames for one
// connection in one write — and then settles each item. A failed send means
// the connection is broken (both provided transports only fail closed), so
// it is closed and every item fails: the member's session redials, to lag
// on every object once back. References are released unconditionally, so
// failure paths cannot leak the shared frame.
func (w *groupWorker) send(run []sendItem) {
	head := &run[0]
	var err error
	switch fs, ok := head.conn.(transport.FrameSender); {
	case len(run) > 1:
		for i := range run {
			w.frames = append(w.frames, run[i].batch.frame)
		}
		err = head.conn.(transport.FrameRunSender).SendFrames(w.frames)
		clear(w.frames)
		w.frames = w.frames[:0]
	case ok && head.batch != nil:
		err = fs.SendFrame(head.batch.frame)
	case head.batch != nil:
		err = head.conn.SendBatch(head.batch.rs)
	default:
		err = head.conn.SendBatch(head.rs)
	}
	if err != nil {
		head.conn.Close()
	}
	for _, it := range run {
		if it.batch != nil {
			it.batch.release()
		}
		if it.sess.inflight.Add(-1); it.g.stall.CompareAndSwap(stallWaiting, stallResume) {
			select {
			case it.g.src.wake <- struct{}{}:
			default:
			}
		}
		if err != nil {
			it.g.sendErrors.Add(1)
			it.sess.groupSendErrors.Add(1)
		} else {
			it.g.delivered.Add(int64(it.n))
			it.sess.groupSent.Add(int64(it.n))
		}
	}
}

// joins reports whether next can go out in one write behind it: a shared
// frame, as it is, to the same connection, which writes runs of frames.
func (it *sendItem) joins(next *sendItem) bool {
	_, runs := it.conn.(transport.FrameRunSender)
	return runs && it.conn == next.conn && it.batch != nil && it.batch.frame != nil && next.batch != nil && next.batch.frame != nil
}

// run sends the head of the queue with the shared frames queued right behind
// it for the same connection: only frames already queued join a run, so
// none waits longer than it would alone.
func (w *groupWorker) run() {
	defer close(w.done)
	for {
		w.mu.Lock()
		for w.head == len(w.queue) && !w.closed {
			w.cond.Wait()
		}
		if w.head == len(w.queue) {
			w.mu.Unlock()
			return
		}
		run := append(w.taken[:0], w.queue[w.head])
		for w.head++; w.head < len(w.queue) && run[0].joins(&w.queue[w.head]); w.head++ {
			run = append(run, w.queue[w.head])
		}
		clear(w.queue[w.head-len(run) : w.head]) // drop references for GC/pooling
		if w.head == len(w.queue) {
			w.queue, w.head = w.queue[:0], 0
		}
		w.mu.Unlock()
		w.send(run)
		clear(run)
		w.taken = run
	}
}

// statsLocked snapshots the group counters. Caller holds src.mu.
func (g *SessionGroup) statsLocked() GroupStats {
	return GroupStats{
		Members:          len(g.members),
		Batches:          g.batches,
		Scheduled:        g.scheduled,
		Delivered:        g.delivered.Load(),
		Fallbacks:        g.fallbacks,
		Detaches:         g.lags,
		Rejoins:          g.caughtUp,
		QueueOverruns:    g.overruns,
		SendErrors:       g.sendErrors.Load(),
		SplicedBatches:   g.splicedBatches,
		SplicedRefreshes: g.splicedRefreshes,
		EarlyBatches:     g.earlyBatches,
		Pending:          g.eng.Queue.Len(),
		Threshold:        g.eng.Threshold(),
		MemberShare:      g.rate,
	}
}
