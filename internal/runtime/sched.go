package runtime

import (
	"bestsync/internal/core"
	"bestsync/internal/metric"
	"bestsync/internal/priority"
	"bestsync/internal/wire"
)

// schedObj is one receiver cohort's view of one object: the value/version
// the cohort was last sent and the divergence accumulated against it. The
// canonical object state (current value, version, update counts) lives in
// Source.objState; a scheduler only tracks what its receivers are missing.
// Kept by value in a schedTable indexed by queue key, like Source.order: no
// heap object per (cohort, object).
type schedObj struct {
	sentVal float64
	sentVer uint64
	tracker metric.Tracker
}

// schedTable is a scheduler's schedObjs, indexed by queue key, in chunks of
// objChunkLen records (the 28 672 B size class, pointer-free: no type header).
// Every chunk but the first is allocated whole and never moves, so growth
// copies nothing and leaves no slack; the first doubles up to a whole chunk,
// so a group of a few objects holds a few records. A *schedObj is valid only
// until the next grow.
type schedTable struct {
	chunks [][]schedObj
	n      int
}

// at returns the record of the object with queue key k.
func (t *schedTable) at(k int) *schedObj {
	return &t.chunks[k>>objChunkShift][k&(objChunkLen-1)]
}

// grow extends the table to n records, the new ones zero.
func (t *schedTable) grow(n int) {
	for t.n < n {
		c := t.n >> objChunkShift
		if c == len(t.chunks) {
			t.chunks = append(t.chunks, nil)
		}
		ch := &t.chunks[c]
		end := min(n-c<<objChunkShift, objChunkLen)
		if end > cap(*ch) {
			size := objChunkLen
			if c == 0 {
				size = min(max(end, 2*cap(*ch), 8), objChunkLen)
			}
			*ch = append(make([]schedObj, 0, size), *ch...)
		}
		*ch = (*ch)[:end]
		t.n = c<<objChunkShift + end
	}
}

// sched is the paper's §5 source toward one receiver cohort: a priority
// queue of diverged objects, the adaptive threshold T_j (both inside the
// core.Source engine) and the per-object divergence records that feed them.
// Every SessionGroup holds one for its members — the shared cohort, or one
// destination on its own — so every delivery path observes, ranks and
// commits through the same code. §8.2 (a priority changes only when
// divergence does) is what keeps it event-driven: observe and commit are the
// only places a priority is computed.
//
// All of it is guarded by the owning Source's mutex. Nothing here allocates
// in steady state, and nothing may start to: observe and commit run once per
// update on the hot path.
type sched struct {
	scfg *SourceConfig // the owning Source's configuration, immutable after construction
	eng  *core.Source
	// objs is indexed like Source.order: entry k is this cohort's record of
	// the object with queue key k.
	objs schedTable
	// demand is the running Σ tracker.Current() over objs, the rebalancer's
	// outstanding-divergence signal, maintained incrementally so a
	// rebalance pass never walks the objects.
	demand float64
}

func newSched(cfg *SourceConfig) sched {
	return sched{scfg: cfg, eng: core.NewSource(0, cfg.Params, core.PositiveFeedback)}
}

// observe folds a canonical-state change for object o into the cohort's
// divergence tracker and priority queue.
func (sc *sched) observe(o *objState, now float64) {
	so := sc.objs.at(int(o.key))
	d := metric.Divergence(sc.scfg.Metric, sc.scfg.Delta,
		int(o.version-so.sentVer), o.value, so.sentVal)
	if so.sentVer == 0 && d == 0 {
		// Nothing has ever been sent to this cohort: it holds no copy at
		// all, so even a value matching the zero baseline must be
		// propagated to register the object.
		d = 1
	}
	sc.demand += d - so.tracker.Current()
	so.tracker.Update(now, d)
	sc.requeue(o, now)
}

// requeue recomputes object o's refresh priority and syncs the engine
// queue.
func (sc *sched) requeue(o *objState, now float64) {
	key := int(o.key)
	w := 1.0
	if sc.scfg.Weight != nil {
		w = sc.scfg.Weight(o.id)
	}
	lambda := 0.0
	if span := now - o.firstAt; span > 0 && o.updates > 1 {
		lambda = float64(o.updates) / span
	}
	tr := &sc.objs.at(key).tracker
	p := priority.Compute(sc.scfg.PriorityFn, priority.Inputs{
		Now:         now,
		LastRefresh: tr.LastReset(),
		Divergence:  tr.Current(),
		Integral:    tr.Integral(now),
		Weight:      w,
		Lambda:      lambda,
		Updates:     tr.UpdatesBehind(),
	})
	if p > 0 {
		sc.eng.Queue.Upsert(key, p)
	} else {
		sc.eng.Queue.Remove(key)
	}
}

// commit records that the cohort holds object o's current value and version:
// a refresh committed at schedule time, under the same lock hold that built
// it, or an ack proving the cache already has it. Nothing can have landed
// since, so the tracker restarts at now with divergence zero and the object
// leaves the queue until the next update re-ranks it (the §8.2 event-driven
// discipline).
func (sc *sched) commit(o *objState, now float64) {
	so := sc.objs.at(int(o.key))
	sc.demand -= so.tracker.Current()
	so.sentVal, so.sentVer = o.value, o.version
	so.tracker.Reset(now, 0)
	sc.eng.Queue.Remove(int(o.key))
}

// unschedule takes the object with queue key key out of the schedule without
// a send and without touching sent-state. The tracker is zeroed too:
// divergence toward an object this cohort will not be sent must not linger as
// rebalancer demand, where it would earn share the scheduler cannot spend.
func (sc *sched) unschedule(key int, now float64) {
	so := sc.objs.at(key)
	sc.demand -= so.tracker.Current()
	so.tracker.Reset(now, 0)
	sc.eng.Queue.Remove(key)
}

// deviates reports whether object o is worth a refresh at threshold t: the
// cohort holds no copy at all, or the value differs from the copy it was sent
// by at least t. Exact only under the value-deviation metric with the default
// |V1−V2| delta — callers check that shape before trusting it.
func (sc *sched) deviates(o *objState, t float64) bool {
	so := sc.objs.at(int(o.key))
	if so.sentVer == 0 {
		return true
	}
	d := o.value - so.sentVal
	if d < 0 {
		d = -d
	}
	return d >= t
}

// refresh builds the message that carries object o's current value, whose
// provenance is prov, to the cohort, piggybacking the scheduler's threshold.
// cacheID is the receiver's self-reported identity, empty on a frame the whole
// group shares.
func (sc *sched) refresh(o *objState, prov *Provenance, cacheID string, epoch, sentUnix int64) wire.Refresh {
	return wire.Refresh{
		SourceID: sc.scfg.ID,
		ObjectID: o.id,
		CacheID:  cacheID,
		// Provenance for multi-tier topologies: a relay re-exports with the
		// originating source, incremented hop count, relay path and the
		// origin's preserved version axis; locally produced values carry the
		// zero provenance (their origin axis IS Epoch/Version).
		Origin:        prov.Origin,
		Hops:          prov.Hops,
		Via:           prov.Via,
		OriginEpoch:   prov.Epoch,
		OriginVersion: prov.Version,
		Value:         o.value,
		Version:       o.version,
		Epoch:         epoch,
		Threshold:     sc.eng.Threshold(),
		SentUnix:      sentUnix,
	}
}

// limit is the one place a scheduler's engine learns whether it is limited —
// sending at the full capacity of its share, the state in which §5 has a
// source ignore positive feedback: sendable work is left AND the bucket, at
// tokens, cannot pay for one more refresh. A group calls it once at the end
// of every scheduling pass, whether or not the pass cut anything, so the flag
// always describes the most recent look at the queue. A pass that never
// started for lack of budget is limited.
func (sc *sched) limit(tokens float64) {
	_, _, want := sc.eng.ShouldSend()
	sc.eng.SetLimited(want && tokens < 1)
}
