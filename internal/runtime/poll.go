package runtime

import (
	"math"
	"math/rand"
	"slices"
	"time"

	"bestsync/internal/cgm"
	"bestsync/internal/transport"
	"bestsync/internal/wire"
)

// PollConfig tunes the cache-driven sync policies (CacheConfig.Policy
// ideal/cgm1/cgm2); it is ignored under the push policy.
type PollConfig struct {
	// ReSolveEvery is the re-estimation / re-allocation epoch: every
	// interval the scheduler re-estimates each object's update rate, solves
	// cgm.OptimalAllocation for new per-object poll frequencies, and
	// re-sends a discovery poll to every connected source so objects that
	// appeared since the last epoch join the schedule. Default 30 s.
	ReSolveEvery time.Duration
	// TrueRate supplies the known per-object update rate (updates/second)
	// for PolicyIdeal — the §6.3 ideal assumes the cache knows every λ
	// exactly. Nil makes ideal fall back to CGM1's live estimates (at
	// ideal's 1-message cost); the practical modes ignore it.
	TrueRate func(objectID string) float64
	// Seed fixes the poll-phase randomization (tests/benchmarks); 0 derives
	// one from the clock.
	Seed int64
}

// pollObj is the scheduler's view of one remote object: the identity of the
// source that owns it, the ORIGIN-AXIS (epoch, version) observed at the
// last poll — the change detector; the origin axis, not the answerer's own,
// so a peer relaying another node's value and the origin itself count as
// the same version and a cache polling both never sees a phantom change —
// and the live CGM estimators its polls feed.
type pollObj struct {
	id       string
	sourceID string
	epoch    int64
	version  uint64
	lastPoll float64 // protocol seconds of the last processed observation
	period   float64 // 1/f from the last solve; +Inf = not scheduled
	est1     cgm.LastModifiedEstimator
	est2     cgm.BinaryEstimator
}

// pollQueue is a due-time min-heap over scheduler object indexes (the same
// shape as the syncsim engine's poll heap, kept local so the live scheduler
// and the simulator can evolve independently).
type pollQueue struct {
	due  []float64
	objs []int32
}

func (h *pollQueue) Len() int { return len(h.due) }
func (h *pollQueue) less(i, j int) bool {
	if h.due[i] != h.due[j] {
		return h.due[i] < h.due[j]
	}
	return h.objs[i] < h.objs[j]
}
func (h *pollQueue) swap(i, j int) {
	h.due[i], h.due[j] = h.due[j], h.due[i]
	h.objs[i], h.objs[j] = h.objs[j], h.objs[i]
}
func (h *pollQueue) Push(t float64, obj int) {
	h.due = append(h.due, t)
	h.objs = append(h.objs, int32(obj))
	i := h.Len() - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}
func (h *pollQueue) Pop() (float64, int) {
	t, o := h.due[0], int(h.objs[0])
	last := h.Len() - 1
	h.swap(0, last)
	h.due, h.objs = h.due[:last], h.objs[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < last && h.less(l, s) {
			s = l
		}
		if r < last && h.less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		h.swap(i, s)
		i = s
	}
	return t, o
}
func (h *pollQueue) Reset() {
	h.due = h.due[:0]
	h.objs = h.objs[:0]
}

// pollScheduler drives a cache-driven policy on a live cache: it discovers
// the object universe from connected sources, polls each object at the
// frequency cgm.OptimalAllocation assigns it under the cache's message
// budget, feeds the replies to the live CGM estimators, and installs
// changed values through the same apply path refreshes take.
//
// # Message accounting
//
// The cache's Bandwidth is a MESSAGE budget, as in the push policy, so the
// two are comparable at equal configuration: a targeted poll of one object
// costs Policy.MessageCost() (2 for the practical modes — request +
// response; 1 for ideal, whose requests are free per §6.3) and is charged
// when the poll is sent. EVERY value transfer pays that per-refresh price:
// a discovery (full-store) reply only registers the object universe — ids
// and schedule slots, never values — and is charged flat (one request
// message at send, zero for ideal, plus one reply message at receipt), so
// re-discovering new objects each epoch cannot smuggle an uncharged bulk
// sync past the comparison. The token bucket accrues at the live Bandwidth
// each tick with the shared burst floor; an over-spend pushes it negative,
// delaying future polls until amortized.
//
// The scheduler runs on the cache's dispatcher: its tick and the poll replies
// are cases of Cache.loop, so its state needs no lock of its own, and the
// values it installs are applied in turn with pushed batches. Its counters are
// the poll fields of the cache's CacheStats, under Cache.mu.
type pollScheduler struct {
	c   *Cache
	pe  transport.PollEndpoint
	cfg PollConfig
	rng *rand.Rand

	start     time.Time // protocol time zero (now)
	budget    tokenBucket
	nextSolve float64 // protocol seconds of the next re-solve

	objects []*pollObj
	index   idIndex // object id → objects index, confirmed against objects[i].id
	known   map[string]bool
	queue   pollQueue
	// peers reports which connected sources advertised the peer-serving
	// capability (wire.CapPeer); known-version hints are only attached to
	// polls toward those (nil when the transport cannot say).
	peers peerReporter

	// batch is sendDue's per-source id lists and hints its known-version
	// hints, reused from tick to tick: SendPoll encodes or copies what it
	// keeps. install is processReply's, the refreshes a reply installs.
	// connected and lambdas are solve's, reused from epoch to epoch.
	batch     map[string][]string
	hints     []wire.KnownVersion
	install   []wire.Refresh
	connected map[string]bool
	lambdas   []float64
}

func newPollScheduler(c *Cache, pe transport.PollEndpoint, cfg PollConfig) *pollScheduler {
	if cfg.ReSolveEvery <= 0 {
		cfg.ReSolveEvery = 30 * time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = c.cfg.Now().UnixNano()
	}
	ps := &pollScheduler{
		c:         c,
		pe:        pe,
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(seed)),
		start:     c.cfg.Now(),
		nextSolve: cfg.ReSolveEvery.Seconds(),
		known:     map[string]bool{},
		batch:     map[string][]string{},
		connected: map[string]bool{},
	}
	ps.peers, _ = pe.(peerReporter)
	return ps
}

// peerReporter is the optional transport capability the scheduler consults
// before attaching known-version hints (wire.Poll.Known) to a targeted
// poll: whether the answering source's Hello carried wire.CapPeer. A
// pre-peer binary decoder would reject the trailing Known segment as a bad
// frame, so the hints are only sent to peers that advertised the
// capability. Both provided transports implement it.
type peerReporter interface {
	PeerServesPeers(sourceID string) bool
}

// count adds to the cache's poll counters: requests sent, reply messages
// received (one per targeted item, one per discovery listing), completed
// allocation solves.
func (ps *pollScheduler) count(polls, replies, resolves int) {
	ps.c.mu.Lock()
	ps.c.stats.Polls += polls
	ps.c.stats.PollReplies += replies
	ps.c.stats.Resolves += resolves
	ps.c.mu.Unlock()
}

// pollBudget is the refresh budget: the live message budget divided by the
// policy's per-refresh message cost.
func (ps *pollScheduler) pollBudget() float64 {
	return ps.c.Bandwidth() / ps.c.cfg.Policy.MessageCost()
}

// now is the scheduler's protocol time: seconds since it started.
func (ps *pollScheduler) now() float64 { return ps.c.cfg.Now().Sub(ps.start).Seconds() }

// tick is the scheduler's part of the dispatcher's tick: accrue the poll
// budget, discover new sources, send the polls that are due, and re-solve
// the allocation once per epoch.
func (ps *pollScheduler) tick() {
	c := ps.c
	cost := c.cfg.Policy.MessageCost()
	ps.budget.accrue(c.Bandwidth(), c.cfg.Tick.Seconds(), c.cfg.Tick)
	t := ps.now()
	ps.budget.tokens -= ps.discoverNew(cost)
	ps.budget.tokens -= ps.sendDue(t, cost, ps.budget.tokens)
	if t >= ps.nextSolve {
		ps.solve(t)
		ps.nextSolve += ps.cfg.ReSolveEvery.Seconds()
	}
}

// find returns the objects index of object id, or -1, and the id's hash for
// an add that follows.
func (ps *pollScheduler) find(id string) (int, uint64) {
	h := hashID(id)
	p := ps.index.probe(h)
	for {
		if i := ps.index.next(&p); i < 0 || ps.objects[i].id == id {
			return int(i), h
		}
	}
}

// add registers a newly discovered object whose id hashes to h.
func (ps *pollScheduler) add(h uint64, o *pollObj) {
	ps.index.insert(h, int32(len(ps.objects)))
	ps.objects = append(ps.objects, o)
}

// discoverNew sends a discovery poll to every connected source the
// scheduler has not seen yet, returning the budget spent (the request
// message; free under ideal).
func (ps *pollScheduler) discoverNew(cost float64) float64 {
	spent := 0.0
	for _, id := range ps.pe.Sources() {
		if ps.known[id] {
			continue
		}
		ps.known[id] = true
		spent += ps.discover(id, cost)
	}
	return spent
}

// discover sends one full-store poll.
func (ps *pollScheduler) discover(sourceID string, cost float64) float64 {
	p := wire.Poll{CacheID: ps.c.cfg.ID, SentUnix: ps.c.cfg.Now().UnixNano()}
	if err := ps.pe.SendPoll(sourceID, p); err != nil {
		return 0
	}
	ps.count(1, 0, 0)
	return cost - 1 // the request message; the reply is charged per item
}

// sendDue pops every due object the budget covers and sends the polls,
// batched per source (one Poll message naming all of a source's due
// objects), returning the budget spent. Each popped object is immediately
// re-scheduled one period ahead — pacing is by period, not by reply
// latency, so a lost poll or reply only costs one observation.
func (ps *pollScheduler) sendDue(t, cost, budget float64) float64 {
	if ps.queue.Len() == 0 || ps.queue.due[0] > t || budget < cost {
		return 0
	}
	batch := ps.batch
	for src, ids := range batch {
		batch[src] = ids[:0]
	}
	spent := 0.0
	for ps.queue.Len() > 0 && ps.queue.due[0] <= t && budget-spent >= cost {
		_, i := ps.queue.Pop()
		o := ps.objects[i]
		if math.IsInf(o.period, 1) {
			continue // de-scheduled by a solve after this entry was pushed
		}
		batch[o.sourceID] = append(batch[o.sourceID], o.id)
		spent += cost
		ps.queue.Push(t+o.period, i)
	}
	sent := 0
	for src, ids := range batch {
		if len(ids) == 0 {
			continue
		}
		p := wire.Poll{
			CacheID:   ps.c.cfg.ID,
			ObjectIDs: ids,
			SentUnix:  ps.c.cfg.Now().UnixNano(),
		}
		if ps.peers != nil && ps.peers.PeerServesPeers(src) {
			// Advisory held-version hints: a peer-serving answerer omits
			// items the hints prove this cache already holds at-or-ahead,
			// saving the reply bytes (the change detector sees no item and
			// simply observes no change).
			p.Known = ps.knownFor(ids)
		}
		if err := ps.pe.SendPoll(src, p); err != nil {
			spent -= cost * float64(len(ids)) // refund: nothing hit the wire
			continue
		}
		sent += len(ids)
	}
	ps.count(sent, 0, 0)
	return spent
}

// processReply folds one poll reply into the estimators and the store,
// returning the budget charged at receipt.
//
// A discovery reply (All) is a universe listing: unknown objects are
// registered and scheduled — with a zero change-detection baseline, so
// their first TARGETED poll observes a change and installs the value at
// full per-refresh cost — but no values are installed and no estimator is
// fed from it. Targeted replies are the real observations: change
// detection against the last-polled (epoch, version), estimator feeding,
// and installation of changed values through the apply path.
func (ps *pollScheduler) processReply(r wire.PollReply, t float64) float64 {
	if r.All {
		created := 0
		for _, it := range r.Items {
			if !it.Exists {
				continue
			}
			i, h := ps.find(it.ObjectID)
			if i >= 0 {
				continue // known: its targeted polls carry the observations
			}
			ps.add(h, &pollObj{
				id:       it.ObjectID,
				sourceID: r.SourceID,
				lastPoll: t,
				period:   math.Inf(1),
			})
			created++
		}
		if created > 0 {
			ps.scheduleNew(t, created)
		}
		ps.count(0, 1, 0) // the listing reply is one (metadata) message
		return 1
	}

	wallNow := ps.c.cfg.Now()
	install := ps.install[:0]
	created := 0
	for _, it := range r.Items {
		i, h := ps.find(it.ObjectID)
		if i < 0 {
			if !it.Exists {
				continue
			}
			// A targeted answer for an object we had not registered yet
			// (possible when a reply outruns the discovery that named it):
			// this poll was paid for, so install and schedule.
			oe, ov := it.OriginAxis()
			o := &pollObj{
				id:       it.ObjectID,
				sourceID: r.SourceID,
				epoch:    oe,
				version:  ov,
				lastPoll: t,
				period:   math.Inf(1),
			}
			ps.add(h, o)
			created++
			install = append(install, ps.refreshFor(r.SourceID, it))
			continue
		}
		o := ps.objects[i]
		o.sourceID = r.SourceID
		// Change detection runs on the origin axis: a lateral peer's relayed
		// copy and the origin's own answer carry the same origin (epoch,
		// version), so switching which node answers never fabricates a
		// change (the answerer's own Epoch would differ per node).
		oe, ov := it.OriginAxis()
		changed := it.Exists && (oe != o.epoch || ov != o.version)
		interval := t - o.lastPoll
		if interval > 0 {
			age := 0.0
			if it.LastModifiedUnix > 0 {
				age = wallNow.Sub(time.Unix(0, it.LastModifiedUnix)).Seconds()
				if age < 0 {
					age = 0 // cross-node clock skew must not poison the MLE
				}
			}
			o.est1.Observe(changed, interval, age)
			o.est2.Observe(changed, interval)
			o.lastPoll = t
		}
		if changed {
			o.epoch, o.version = oe, ov
			install = append(install, ps.refreshFor(r.SourceID, it))
		}
	}
	if created > 0 {
		ps.scheduleNew(t, created)
	}
	ps.install = install
	if len(install) > 0 {
		ps.c.installPolled(install)
	}
	ps.count(0, len(r.Items), 0)
	return 0 // targeted polls were charged in full at send time
}

// knownFor builds the known-version hints for a targeted poll from the
// cache store: the origin identity and origin-axis version of each held
// copy. Objects not in the store yield no hint (the answerer must reply).
// The hints are in the scheduler's buffer, valid until the next call.
func (ps *pollScheduler) knownFor(ids []string) []wire.KnownVersion {
	known := ps.hints[:0]
	for _, id := range ids {
		if e, ok := ps.c.Get(id); ok {
			oe, ov := e.OriginAxis()
			known = append(known, wire.KnownVersion{
				ObjectID: id, Origin: e.OriginID(), Epoch: oe, Version: ov,
			})
		}
	}
	ps.hints = known
	return known
}

// refreshFor converts one poll answer into the refresh the apply path
// installs — same staleness guards, stats and OnApply hook as a pushed
// refresh, with the answer's provenance carried through so a node that
// re-exports the polled value keeps the loop-avoidance path and origin
// axis intact (lateral serving would otherwise break the mesh's loop
// guards).
func (ps *pollScheduler) refreshFor(sourceID string, it wire.PollItem) wire.Refresh {
	return wire.Refresh{
		SourceID:      sourceID,
		ObjectID:      it.ObjectID,
		CacheID:       ps.c.cfg.ID,
		Origin:        it.Origin,
		Hops:          it.Hops,
		Via:           it.Via,
		OriginEpoch:   it.OriginEpoch,
		OriginVersion: it.OriginVersion,
		Value:         it.Value,
		Version:       it.Version,
		Epoch:         it.Epoch,
		SentUnix:      it.LastModifiedUnix,
	}
}

// scheduleNew gives the n newest objects a provisional uniform slice of the
// poll budget (the engine's pre-estimate phase) so they are polled before
// the next solve re-derives real frequencies.
func (ps *pollScheduler) scheduleNew(t float64, n int) {
	budget := ps.pollBudget()
	if budget <= 0 {
		return
	}
	period := float64(len(ps.objects)) / budget
	for i := len(ps.objects) - n; i < len(ps.objects); i++ {
		ps.objects[i].period = period
		ps.queue.Push(t+ps.rng.Float64()*period, i)
	}
}

// solve re-estimates every object's update rate, recomputes the optimal
// allocation under the current budget, rebuilds the poll schedule with
// randomized phases, and re-discovers connected sources so new objects
// join the universe.
//
// Objects whose source is not currently connected are carried with a zero
// rate, which the allocator maps to frequency 0 — a departed source's
// objects must not keep capturing poll budget from live ones. Their
// estimator state is retained: if the source reconnects, the next solve
// folds them straight back into the allocation.
func (ps *pollScheduler) solve(t float64) {
	n := len(ps.objects)
	if n > 0 {
		connected := ps.connected
		clear(connected)
		for _, id := range ps.pe.Sources() {
			connected[id] = true
		}
		lambdas := slices.Grow(ps.lambdas[:0], n)[:n]
		for i, o := range ps.objects {
			lambdas[i] = 0
			if connected[o.sourceID] {
				lambdas[i] = ps.lambdaFor(o)
			}
		}
		ps.lambdas = lambdas
		freqs := cgm.OptimalAllocation(lambdas, ps.pollBudget())
		ps.queue.Reset()
		for i, f := range freqs {
			if f > 0 {
				ps.objects[i].period = 1 / f
				ps.queue.Push(t+ps.rng.Float64()*ps.objects[i].period, i)
			} else {
				ps.objects[i].period = math.Inf(1)
			}
		}
	}
	ps.count(0, 0, 1)
	// Re-discover: objects created at the sources since the last epoch are
	// invisible to targeted polls. The known set is reset so next tick's
	// discoverNew re-polls every connected source's full store.
	clear(ps.known)
}

// lambdaFor picks the update-rate estimate the configured policy allows.
func (ps *pollScheduler) lambdaFor(o *pollObj) float64 {
	switch ps.c.cfg.Policy {
	case PolicyIdeal:
		if ps.cfg.TrueRate != nil {
			return ps.cfg.TrueRate(o.id)
		}
		fallthrough // degrade to CGM1 estimates (documented on PollConfig)
	case PolicyCGM1:
		if l := o.est1.Estimate(); l > 0 {
			return l
		}
		return o.est1.FloorRate()
	case PolicyCGM2:
		if l := o.est2.Estimate(); l > 0 {
			return l
		}
		return o.est2.FloorRate()
	default:
		return 0
	}
}
