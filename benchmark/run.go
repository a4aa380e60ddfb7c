package main

import (
	"fmt"
	"math"
	stdruntime "runtime"
	"time"

	"bestsync/internal/runtime"
)

// snapshot is what the harness reads at a window boundary.
type snapshot struct {
	at      int64
	cpuNs   int64
	mallocs uint64
	origins []runtime.SourceStats
	leaves  []runtime.CacheStats
	node    runtime.NodeStats
}

func (h *harness) snap(t *topology) snapshot {
	var ms stdruntime.MemStats
	stdruntime.ReadMemStats(&ms)
	s := snapshot{at: h.now(), cpuNs: processCPUNs(), mallocs: ms.Mallocs}
	for _, src := range t.origins {
		s.origins = append(s.origins, src.Stats())
	}
	for _, c := range t.leaves {
		s.leaves = append(s.leaves, c.Stats())
	}
	if t.relay != nil {
		s.node = t.relay.Stats()
	}
	return s
}

// measurement is one set-up + warm-up + window + drain of one workload.
type measurement struct {
	topo      *topology // closed; kept for its budgets and shape
	setups    []float64 // seconds, one per set-up
	heapBytes float64   // live heap the topology added, after the last set-up
	begin     snapshot
	end       snapshot
	final     snapshot // after the drain
	updates   int      // updates offered in the window
	div       float64
	vis       hist
	p99s      []float64
	unconv    float64 // share of (leaf, object) pairs whose value differs from the origin's after the drain
	attempted int64
	failed    int64
	failures  map[string]int64
	spans     *spanSummary // traced runs
	wire      wireCounts   // traced runs
}

func (m *measurement) seconds() float64 { return float64(m.end.at-m.begin.at) / 1e9 }

func (m *measurement) cpuPerUpdateUs() float64 {
	return float64(m.end.cpuNs-m.begin.cpuNs) / 1e3 / float64(m.updates)
}

func (m *measurement) fail(kind string, n int64) {
	if n > 0 {
		m.failures[kind] += n
		m.failed += n
	}
}

func liveHeap() float64 {
	// Twice: the first cycle only moves sync.Pool contents to the victim
	// cache, the second frees them.
	stdruntime.GC()
	stdruntime.GC()
	var ms stdruntime.MemStats
	stdruntime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// setup builds the topology and cold-syncs it: every object gets its initial
// value 0 (origin version 1) and set-up ends when every leaf holds every
// object — on the polled workload, where cold objects are never fetched by
// design, when the cache has solved its allocation twice.
func (h *harness) setup() (*topology, error) {
	t, err := h.wl.build(h)
	t.built = h.now()
	if err != nil {
		if t != nil {
			t.close()
		}
		return nil, fmt.Errorf("building %s: %w", h.wl.name, err)
	}
	perOrigin := h.wl.objects / h.wl.origins
	for o, id := range h.ids {
		t.origins[o/perOrigin].Update(id, 0)
	}
	deadline := time.Now().Add(60 * time.Second)
	for !h.synced(t) {
		if time.Now().After(deadline) {
			t.close()
			return nil, fmt.Errorf("%s: cold sync did not finish in 60 s", h.wl.name)
		}
		time.Sleep(time.Millisecond)
	}
	return t, nil
}

func (h *harness) synced(t *topology) bool {
	if h.wl.polled {
		return t.leaves[0].Stats().Resolves >= 2
	}
	for _, ob := range h.obs {
		if ob.seen.Load() < int64(h.wl.objects) {
			return false
		}
	}
	return true
}

// generate issues slots [from, to) open loop: each slot's updates are due at
// the slot's start, and a late generator issues back to back until it has
// caught up, so a stall shows as lateness and as latency, never as less load.
func (h *harness) generate(t *topology, from, to int) {
	perSlot := h.sched.perSlot
	perOrigin := h.wl.objects / h.wl.origins
	t0 := h.t0.Load()
	for s := from; s < to; s++ {
		due := t0 + int64(s)*slotNs
		h.sleepUntil(due)
		now := h.now()
		if h.wl.pinned {
			now = h.holdForBacklog(s*perSlot, now)
		}
		inWindow := s >= h.warmSlots
		if inWindow {
			h.late.add(now - due)
		}
		sec := float64(now) / 1e9
		for g := s * perSlot; g < (s+1)*perSlot; g++ {
			o, nv := int(h.sched.obj[g]), h.sched.val[g]
			h.setOrigin(o, nv, sec)
			src := t.origins[o/perOrigin]
			if !h.traced {
				src.Update(h.ids[o], float64(nv))
				continue
			}
			a := h.now()
			src.Update(h.ids[o], float64(nv))
			b := h.now()
			h.genT0[g], h.genT1[g] = a, b
			if inWindow {
				h.call.add(b - a)
			}
		}
	}
}

// holdForBacklog keeps the generator of a pinned workload from running on
// ahead of a pipeline that has stopped delivering (a host stall, overload):
// it waits while more than half the objects' worth of updates are somewhere
// between Update and a leaf. Past that the round-robin re-updates objects
// whose last update is still queued and member queues overrun, and the seed
// dies of the hazard in the README (one run did, at the origin, while a
// stalled host held visible_p50_ms at 512 ms instead of 8; under three CPU
// hogs the relay did, after a member detached). Never taken while the
// pipeline keeps up — two ticks' worth are in flight, an eighth of the
// limit; the wait shows as generator lateness, which flags the window as
// disturbed. issued is the number of updates issued so far; returns the time.
func (h *harness) holdForBacklog(issued int, now int64) int64 {
	target := int64(h.wl.objects + issued) // Σ origin versions
	deadline := now + int64(drainTime)
	for now < deadline {
		backlog := int64(0)
		for _, ob := range h.obs {
			backlog = max(backlog, target-ob.verSum.Load())
		}
		if backlog <= int64(h.wl.objects/2) {
			break
		}
		h.holds++
		time.Sleep(time.Millisecond)
		now = h.now()
	}
	return now
}

// startReader runs the one reader goroutine of a workload that has one: timed
// blocks of Gets against leaf-0 at the workload's read rate, from warm-up to
// the end of the window.
func (h *harness) startReader(leaf *runtime.Cache) (stop func()) {
	if h.wl.reads == 0 {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		period := int64(readBlock) * int64(time.Second) / int64(h.wl.reads)
		next := h.t0.Load()
		x := uint32(h.seed)
		for {
			h.sleepUntil(next)
			select {
			case <-quit:
				return
			default:
			}
			a := h.now()
			for i := 0; i < readBlock; i++ {
				x = x*1664525 + 1013904223
				leaf.Get(h.ids[int(x>>8)%h.wl.objects])
			}
			if b := h.now(); h.sliceOf(a) >= 0 {
				h.read.add(b - a)
			}
			next += period
		}
	}()
	return func() { close(quit); <-done }
}

// settle is waited between the end of the last set-up and the heap reading,
// so that set-up traffic still in flight (the polling cache re-lists the
// origin's objects after every solve) has been consumed and freed.
const settle = 100 * time.Millisecond

// measure runs the workload once: setups set-ups (the last one is kept),
// warm-up, the measured window and the drain, then the checks.
func (h *harness) measure(traced bool, setups int) (*measurement, error) {
	h.traced = traced
	m := &measurement{failures: map[string]int64{}}
	heapBase := 0.0
	var t *topology
	for i := 0; i < setups; i++ {
		if t != nil {
			t.close()
		}
		h.reset()
		if i == 0 {
			heapBase = liveHeap()
		}
		start := time.Now()
		var err error
		if t, err = h.setup(); err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(start).Seconds())
	}
	time.Sleep(settle)
	m.heapBytes = liveHeap() - heapBase

	// The slot grid keeps a fixed phase to the origin's flush ticker (started
	// when build returned): ticks fall mid-slot, after the slot's burst. Left
	// to chance, that sub-millisecond phase decides whether a slot's updates
	// make the tick that fires beside them or wait a whole tick for the next
	// one, and moves the pinned workloads' visible_p50_ms by up to 1 ms from
	// run to run.
	t0 := h.now() + 2*slotNs
	t0 += ((t.built+slotNs/2-t0)%slotNs + slotNs) % slotNs
	h.t0.Store(t0)
	h.winStart.Store(t0 + int64(h.warmSlots)*slotNs)
	h.winEnd.Store(t0 + int64(h.warmSlots+h.winSlots)*slotNs)
	h.tracing.Store(traced)
	stopReader := h.startReader(t.leaves[0])

	h.generate(t, 0, h.warmSlots)
	h.sleepUntil(h.winStart.Load())
	m.begin = h.snap(t)
	s0, d0 := h.openDivergence()
	h.generate(t, h.warmSlots, h.warmSlots+h.winSlots)
	h.sleepUntil(h.winEnd.Load())
	m.div = h.closeDivergence(s0, d0)
	m.end = h.snap(t)
	m.updates = h.winSlots * h.sched.perSlot
	stopReader()

	h.drain()
	h.tracing.Store(false)
	m.final = h.snap(t)
	t.close()
	m.topo = t
	m.vis, m.p99s = h.visibility()
	h.check(m)
	if traced {
		m.spans, m.wire = h.joinTrace()
	}
	return m, nil
}

// drain waits out the quiescence allowance after the generator stops; a
// pinned workload may finish early once every leaf holds every final version.
func (h *harness) drain() {
	target := int64(h.wl.objects + len(h.sched.obj)) // Σ final versions
	deadline := time.Now().Add(drainTime)
	for time.Now().Before(deadline) {
		if h.wl.pinned {
			caughtUp := true
			for _, ob := range h.obs {
				caughtUp = caughtUp && ob.verSum.Load() == target
			}
			if caughtUp {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// tokenBurst mirrors the runtime's bucket capacity: two ticks' accrual,
// floored at two messages.
func tokenBurst(rate float64) float64 {
	return math.Max(2, rate*tick.Seconds()*2)
}

// check counts the run's operations and failures. It runs after the topology
// is closed, so the observers' per-object state is quiescent.
func (h *harness) check(m *measurement) {
	t, T := m.topo, m.seconds()
	var applied, badValue, badOrder int64
	for _, ob := range h.obs {
		applied += ob.applied
		badValue += ob.badValue
		badOrder += ob.badOrder
	}
	m.attempted += applied
	m.fail("value_mismatch", badValue)
	m.fail("version_not_increasing", badOrder)

	// Budget conservation over the window, with 2 % slack on top of the
	// bucket's burst (and one batch of overshoot on the receiving side).
	for i := range t.origins {
		sent := float64(m.end.origins[i].Refreshes - m.begin.origins[i].Refreshes)
		if allowed := (t.originBudget*T + tokenBurst(t.originBudget)) * 1.02; sent > allowed {
			m.fail("origin_over_budget", int64(sent-allowed)+1)
		}
		m.attempted += int64(m.final.origins[i].Refreshes)
		m.fail("send_errors", int64(m.final.origins[i].SendErrors))
	}
	for i := range t.leaves {
		b, e := m.begin.leaves[i], m.end.leaves[i]
		got := float64(e.Refreshes + e.Stale - b.Refreshes - b.Stale)
		if allowed := (t.leafBudget*T+tokenBurst(t.leafBudget))*1.02 + 64; got > allowed {
			m.fail("leaf_over_budget", int64(got-allowed)+1)
		}
	}

	// Final state. Budget-limited workloads make no convergence check: the
	// paper's area priority is constant between updates, so a quiescent object
	// with non-positive area is never sent. The share is reported instead.
	differ, behind := 0, int64(0)
	for _, ob := range h.obs {
		for o := range ob.val {
			if ob.val[o] != h.origin[o] {
				differ++
			}
			if ob.last[o] != h.sched.finalVersion(o) {
				behind++
			}
		}
	}
	m.unconv = float64(differ) / float64(h.wl.leaves*h.wl.objects)
	if h.wl.pinned {
		m.attempted += int64(h.wl.leaves * h.wl.objects)
		m.fail("not_converged", behind)
	}
}

// endToEndMetrics reports an untraced measurement under the contract's names.
func (h *harness) endToEndMetrics(m *measurement) map[string]float64 {
	// The tail is the lower quartile of the per-second p99s, not their median:
	// a second's p99 has a sharp floor and a long right tail (one stall on a
	// shared box; on poll_zipf one rarely polled object answering with a
	// multi-second backlog), so the floor repeats between runs where the
	// median does not (README, "Departures").
	p99, _, _ := quartiles(m.p99s)
	return map[string]float64{
		"setup_s":               median(m.setups),
		"visible_p50_ms":        m.vis.quantile(0.5) / 1e6,
		"visible_p99_ms":        p99 / 1e6,
		"cpu_us_per_update":     m.cpuPerUpdateUs(),
		"allocs_per_update":     float64(m.end.mallocs-m.begin.mallocs) / float64(m.updates),
		"heap_bytes_per_object": m.heapBytes / float64(h.wl.objects*h.wl.copies),
		"divergence_avg":        m.div,
	}
}

// counters reports the Stats() deltas at the layer boundaries over the window.
func (h *harness) counters(m *measurement) map[string]float64 {
	t, T := m.topo, m.seconds()
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var sent, suppressed, threshold, sendErrors float64
	var detaches, overruns, fallbacks float64
	groupStats := func(b, e runtime.SourceStats) {
		if e.Group == nil {
			return
		}
		var b0 runtime.GroupStats
		if b.Group != nil {
			b0 = *b.Group
		}
		detaches += float64(e.Group.Detaches - b0.Detaches)
		overruns += float64(e.Group.QueueOverruns - b0.QueueOverruns)
		fallbacks += float64(e.Group.Fallbacks - b0.Fallbacks)
	}
	for i := range m.end.origins {
		b, e := m.begin.origins[i], m.end.origins[i]
		sent += float64(e.Refreshes - b.Refreshes)
		suppressed += float64(e.SuppressedObserves - b.SuppressedObserves)
		threshold += e.Threshold / float64(len(m.end.origins))
		sendErrors += float64(e.SendErrors - b.SendErrors)
		groupStats(b, e)
	}
	var applied, stale, feedbacks, polls, replies, resolves float64
	for i := range m.end.leaves {
		b, e := m.begin.leaves[i], m.end.leaves[i]
		applied += float64(e.Refreshes - b.Refreshes)
		stale += float64(e.Stale - b.Stale)
		feedbacks += float64(e.Feedbacks - b.Feedbacks)
		polls += float64(e.Polls - b.Polls)
		replies += float64(e.PollReplies - b.PollReplies)
		resolves += float64(e.Resolves)
	}
	bn, en := m.begin.node, m.end.node
	if t.relay != nil {
		suppressed += float64(en.ThresholdSuppressed - bn.ThresholdSuppressed)
		sendErrors += float64(en.Peers.SendErrors - bn.Peers.SendErrors)
		groupStats(bn.Peers, en.Peers)
	}
	return map[string]float64{
		"source.coalesced_share":     math.Max(0, 1-ratio(sent, float64(m.updates*len(m.end.origins[0].Sessions)))),
		"source.suppressed_share":    ratio(suppressed, float64(m.updates)),
		"source.budget_use":          ratio(sent, t.originBudget*float64(len(t.origins))*T),
		"source.threshold_final":     threshold,
		"source.send_errors":         sendErrors,
		"source.unconverged_share":   m.unconv,
		"cache.budget_use":           ratio(applied+stale, t.leafBudget*float64(len(t.leaves))*T),
		"cache.stale_share":          ratio(stale, applied+stale),
		"cache.feedbacks_per_s":      feedbacks / T,
		"cache.polls_per_s":          polls / T,
		"cache.reply_items_per_poll": ratio(replies, polls),
		"cache.resolves":             resolves,
		"read_p50_us":                h.read.quantile(0.5) / readBlock / 1e3,
		"cache.get_p99_us":           h.read.quantile(0.99) / readBlock / 1e3,
		"node.splice_share":          ratio(float64(en.SplicedRefreshes-bn.SplicedRefreshes), float64(en.Forwarded-bn.Forwarded)),
		"node.splice_fallbacks":      float64(en.SpliceFallbacks - bn.SpliceFallbacks),
		"group.detaches":             detaches,
		"group.queue_overruns":       overruns,
		"group.fallbacks":            fallbacks,
		"gen.late_p99_ms":            h.late.quantile(0.99) / 1e6,
		"gen.late_max_ms":            float64(h.late.max) / 1e6,
	}
}
