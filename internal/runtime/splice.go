// Splice forwarding: the relay re-export hot path that shares the retained
// inbound frame between the apply pipeline and the peer-face broadcast.
//
// The classic path decodes every inbound refresh, re-observes it per session
// and re-encodes a fresh frame for the children — paying the full codec cost
// twice per hop even though most bytes are forwarded verbatim. When a batch
// arrives with its retained wire frame (transport.InboundBatch.Frame), the
// node instead parses the frame into per-item byte ranges (codec.BatchView)
// and assembles the outgoing frame by copying eligible items' bytes and
// patching only the per-hop fields: SourceID stamp, Hops+1, Via append-self,
// re-issued Version/Epoch/Threshold/SentUnix, preserved origin axis. The
// spliced frame is byte-identical to what decode→patch→codec.NewBatchFrame
// would produce (pinned by FuzzSpliceForward), so receivers cannot tell the
// difference.
//
// Eligibility and fallback (see docs/algorithm-specifications.md §14): the
// fast path requires the shared session group, the push policy, the
// value-deviation metric with the default delta, and a parseable canonical
// frame; anything else — and every Local or Batcher member, held-ack or
// split-horizon exclusion, below-threshold or budget-starved item — falls
// back to the classic machinery per batch, per member, or per item without
// changing what any receiver observes. The other groups (weighted peers)
// observe every spliced item as the classic path would have.
package runtime

import (
	"slices"
	"sync"

	"bestsync/internal/metric"
	"bestsync/internal/wire"
	"bestsync/internal/wire/codec"
)

// spliceScratch is the per-batch working state of one onForward call,
// pooled so the hot path allocates nothing per batch once warm. It plays the
// role the SessionGroup's own keyBuf/provBuf/fan scratch plays for the
// flusher — but the splice path runs on the intake cache's dispatcher,
// concurrently with the flusher, so the scratch must be call-owned rather
// than group-owned. Slices are resized, never cleared: every consumer writes
// before it reads (provs and versions are only read at indices the keep mask
// selects, which the loop assigned).
type spliceScratch struct {
	memo     viaMemo
	provs    []Provenance
	versions []uint64
	keys     []int
	fan      fanScratch
}

var spliceScratchPool = sync.Pool{New: func() any { return new(spliceScratch) }}

// grab readies a pooled scratch for a batch of n refreshes.
func (sc *spliceScratch) grab(id string, n int) {
	// The memo outlives the batch: forwarded paths are immutable, so the next
	// batch over the same route (nearly every batch) reuses the path built
	// for this one. It restarts only for another node or after a run of
	// distinct routes, which keeps its linear scan short.
	if sc.memo.id != id || len(sc.memo.in) > 8 {
		sc.memo.id = id
		sc.memo.in = sc.memo.in[:0]
		sc.memo.out = sc.memo.out[:0]
	}
	if cap(sc.provs) < n {
		sc.provs = make([]Provenance, n)
	}
	sc.provs = sc.provs[:n]
	if cap(sc.versions) < n {
		sc.versions = make([]uint64, n)
	}
	sc.versions = sc.versions[:n]
	if cap(sc.keys) < n {
		sc.keys = make([]int, 0, n)
	}
}

// viaMemo builds the forwarded Via path (inbound path + self) once per
// distinct inbound path: every refresh that took the same route shares one
// backing array instead of allocating its own copy per refresh. Provenance
// paths are never mutated downstream (every consumer copies on append — the
// contract stated on wire.Refresh.Via), so the sharing is safe.
type viaMemo struct {
	id  string
	in  [][]string
	out [][]string
}

// path returns via + [self], memoized by path content. The memo is a linear
// scan: a batch almost always carries one distinct inbound path (everything
// came through the same upstream), rarely a handful.
func (v *viaMemo) path(via []string) []string {
	for i, k := range v.in {
		if slices.Equal(k, via) {
			return v.out[i]
		}
	}
	p := make([]string, 0, len(via)+1)
	p = append(append(p, via...), v.id)
	v.in = append(v.in, via)
	v.out = append(v.out, p)
	return p
}

// onForward is the framed-batch re-export hook (CacheConfig.OnForward): the
// splice-forwarding counterpart of reexport. rs, keep and the retained
// frame's encoded items are index-aligned; keep[i] marks refreshes the
// intake actually installed. The hook owns the frame reference.
func (n *Node) onForward(rs []wire.Refresh, frame *codec.Frame, keep []bool) {
	if n.src.LiveDestinations() == 0 {
		n.mu.Lock()
		n.suppressed++
		n.storeAhead = true
		n.mu.Unlock()
		frame.Release()
		return
	}
	// Refine the mask with the re-export guards (same rules as reexport):
	// loop check and hop ceiling both clear keep[i], which excludes the item
	// from the spliced frame AND from the peer-face update — exactly the
	// classic path's `continue`.
	var looped, hopLimited, live int
	sc := spliceScratchPool.Get().(*spliceScratch)
	sc.grab(n.cfg.ID, len(rs))
	provs := sc.provs
	for i := range rs {
		if !keep[i] {
			continue
		}
		ref := &rs[i]
		origin := ref.OriginID()
		if origin == n.cfg.ID || slices.Contains(ref.Via, n.cfg.ID) {
			looped++ // defense in depth; rejectCycle already filters these
			keep[i] = false
			continue
		}
		hops := ref.Hops
		if l := len(ref.Via); l > hops {
			hops = l
		}
		if hops+1 > n.cfg.MaxHops {
			hopLimited++
			keep[i] = false
			continue
		}
		oe, ov := ref.OriginAxis()
		provs[i] = Provenance{Origin: origin, Hops: hops + 1, Via: sc.memo.path(ref.Via), Epoch: oe, Version: ov}
		live++
	}
	if live == 0 {
		spliceScratchPool.Put(sc)
		frame.Release()
		n.mu.Lock()
		n.looped += looped
		n.hopLimited += hopLimited
		n.mu.Unlock()
		return
	}
	scheduled, handled := n.src.forwardSpliced(rs, frame, keep, sc)
	frame.Release()
	if !handled {
		// Classic path: one UpdateFromAll round-trip, re-encode at flush.
		updates := make([]RelayedUpdate, 0, live)
		for i := range rs {
			if keep[i] {
				updates = append(updates, RelayedUpdate{ObjectID: rs[i].ObjectID, Value: rs[i].Value, Prov: provs[i]})
			}
		}
		n.src.UpdateFromAll(updates)
	}
	spliceScratchPool.Put(sc)
	n.mu.Lock()
	n.forwarded += live
	n.looped += looped
	n.hopLimited += hopLimited
	if handled {
		n.splicedBatches++
		n.splicedRefreshes += scheduled
	} else {
		n.spliceFallbacks++
	}
	n.mu.Unlock()
}

// forwardSpliced attempts the splice broadcast of one applied batch. rs,
// keep and provs are index-aligned with the retained frame's encoded items;
// keep[i] marks the applied, forward-eligible refreshes. It returns handled
// = false when the whole batch is ineligible — no session group, wrong
// policy/metric shape, or an unparseable/non-canonical frame — in which
// case nothing happened and the caller runs the classic UpdateFromAll path.
//
// When handled, every kept item advanced the canonical object state under
// one lock acquisition, and each item either boarded the spliced frame
// (scheduled, counted in the return), left the schedule by the group's
// exclusion rule, or fell back to the normal scheduling machinery (within the
// group threshold, out of send budget, or stale against a concurrently
// applied newer copy — the per-item fallback the docs' matrix describes). The
// frame reference stays with the CALLER; the spliced output is an independent
// frame, so the inbound one may be released as soon as this returns.
func (s *Source) forwardSpliced(rs []wire.Refresh, frame *codec.Frame, keep []bool, sc *spliceScratch) (scheduled int, handled bool) {
	g := s.group
	if g == nil || s.cfg.Policy != PolicyPush || s.cfg.Metric != metric.ValueDeviation || s.cfg.Delta != nil {
		return 0, false
	}
	view, err := codec.ParseBatchFrame(frame.Bytes())
	if err != nil {
		return 0, false
	}
	defer view.Release()
	if view.Len() != len(rs) {
		return 0, false // frame/batch drift; the transport contract makes this unreachable
	}
	provs, versions := sc.provs, sc.versions

	s.mu.Lock()
	if len(g.members) == 0 {
		s.mu.Unlock()
		return 0, false
	}
	now, nowUnix := s.clock()
	g.accrueLocked(now)
	threshold := g.eng.Threshold()
	// sent and keys collect, in batch order, the outgoing provenance and the
	// queue key of every item that boards the spliced frame; sent compacts
	// provs in place (it never overtakes the read index).
	sent, keys := provs[:0], sc.keys[:0]
	for i := range rs {
		if !keep[i] {
			continue
		}
		o, h := s.objLocked(rs[i].ObjectID)
		if o == nil {
			o = s.newObjLocked(rs[i].ObjectID, h, now)
		} else if cur := s.order.prov(o.key); cur.Epoch != 0 && cur.Origin == provs[i].Origin &&
			(provs[i].Epoch < cur.Epoch ||
				(provs[i].Epoch == cur.Epoch && provs[i].Version <= cur.Version)) {
			// Batch-level forwarding completes out of apply order across
			// batches: a later batch touching the same object may have
			// advanced the canonical state already. At-or-behind on the
			// origin axis means this item is superseded — skip it (the
			// newer copy was or will be forwarded by its own batch).
			keep[i] = false
			continue
		}
		s.advanceLocked(o, rs[i].Value, provs[i], nowUnix)
		for _, og := range s.groups {
			if og != g {
				og.observeLocked(o, now)
			}
		}
		if g.excludedLocked(o, &provs[i], now) {
			keep[i] = false
			continue
		}
		if !g.deviates(o, threshold) || g.budget.tokens < 1 {
			// Within threshold or out of budget: the normal scheduling
			// machinery picks the object up at the flusher's next pass.
			g.observe(o, now)
			keep[i] = false
			continue
		}
		g.scheduleLocked(o, now)
		versions[i] = o.version
		sent, keys = append(sent, provs[i]), append(keys, int(o.key))
	}
	sc.keys = keys
	scheduled = len(sent)
	g.limit(g.budget.tokens) // a splice call is a scheduling pass of its own
	if scheduled == 0 {
		// Everything deferred to the classic scheduler — still handled: the
		// canonical state advanced and every observe ran.
		s.mu.Unlock()
		return 0, true
	}
	g.splicedBatches++
	g.splicedRefreshes += scheduled

	fp := codec.ForwardPatch{
		SourceID:  s.cfg.ID,
		Epoch:     s.started.UnixNano(),
		Threshold: g.eng.Threshold(),
		SentUnix:  nowUnix,
	}
	b := groupBatchPool.Get().(*groupBatch)
	b.g = g
	b.refs.Store(1)
	// Both forms of the outgoing batch come from the same patch set, and
	// codec.PatchForward is the reference implementation the splice
	// differential fuzz pins SpliceForward against, so they are
	// interchangeable by construction. The decoded one is materialized only
	// when some member cannot take the spliced bytes: a Local or Batcher
	// conn, or an exclusion (held ack ahead of the axis, split horizon) that actually
	// fires for an item of this batch.
	g.fanoutLocked(&sc.fan, b, keys, sent, func() []wire.Refresh {
		return codec.PatchForward(rs, keep, versions, fp)
	}, func() *codec.Frame {
		// The splice itself: kept items' bytes verbatim, per-hop fields
		// patched, skipped items never touched.
		return codec.SpliceForward(view, keep, versions, fp)
	})
	return scheduled, true
}
