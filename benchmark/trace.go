package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bestsync/internal/transport"
	"bestsync/internal/wire"
	"bestsync/internal/wire/codec"
)

// The traced run records, from the benchmark's side of the public API only,
// the instants a refresh crosses a layer boundary:
//
//	due ─ t0 ─ t1 ─ origin SentUnix ─ [relay intake out ─ relay SentUnix] ─ leaf intake out ─ OnApply
//
// due/t0/t1 come from the generator (run.go), the SentUnix instants from the
// wire itself (every hop stamps its schedule instant on the refresh), the
// intake instants from tracedEndpoint below, and OnApply from the observer.
// Each goroutine appends to a log of its own; the logs are joined by
// (object, origin version) once everything has stopped (joinTrace).

// arrival is one sampled refresh (or poll-reply item) leaving a node's intake
// endpoint.
type arrival struct {
	obj  int32
	ver  uint32 // origin version
	sent int64  // the sender's schedule instant, ns since base
	at   int64  // handed to the cache, ns since base
}

// visibleEvent is one sampled apply at a leaf; it covers versions (prev, ver].
type visibleEvent struct {
	obj  int32
	ver  uint32
	prev uint32
	at   int64
}

// wireCounts are the counters only the endpoint wrappers can see.
type wireCounts struct {
	frames, refreshes int64 // batches (or poll replies) and the items in them
	sizedBytes, sized int64 // encoded size of every 64th frame, and its items
}

func (c *wireCounts) add(o wireCounts) {
	c.frames += o.frames
	c.refreshes += o.refreshes
	c.sizedBytes += o.sizedBytes
	c.sized += o.sized
}

// tracedEndpoint passes an intake endpoint's batches and poll replies through
// unchanged, stamping when each leaves for the cache. It delegates the
// capabilities the runtime type-asserts for — frame retention (splice) and
// polling — to the TCP endpoint it wraps. The peer-capability reporters are
// not delegated: no workload dials with capabilities, so they report false
// either way.
type tracedEndpoint struct {
	transport.CacheEndpoint
	h       *harness
	batches chan transport.InboundBatch
	replies chan wire.PollReply
	stop    chan struct{}
	wg      sync.WaitGroup

	// batchLog/replyLog and the counts are owned by the forwarding goroutines
	// until Close has joined them.
	batchLog, replyLog []arrival
	push, poll         wireCounts
}

func (h *harness) traceEndpoint(inner transport.CacheEndpoint, node int) transport.CacheEndpoint {
	te := &tracedEndpoint{
		CacheEndpoint: inner,
		h:             h,
		batches:       make(chan transport.InboundBatch, serveBuffer),
		replies:       make(chan wire.PollReply, serveBuffer),
		stop:          make(chan struct{}),
	}
	for len(h.eps) <= node {
		h.eps = append(h.eps, nil)
	}
	h.eps[node] = te
	te.wg.Add(2)
	go te.forwardBatches()
	go te.forwardReplies()
	return te
}

func (te *tracedEndpoint) Batches() <-chan transport.InboundBatch { return te.batches }
func (te *tracedEndpoint) Replies() <-chan wire.PollReply         { return te.replies }

func (te *tracedEndpoint) SendPoll(sourceID string, p wire.Poll) error {
	return te.CacheEndpoint.(transport.PollEndpoint).SendPoll(sourceID, p)
}

func (te *tracedEndpoint) RetainFrames(on bool) {
	te.CacheEndpoint.(transport.FrameRetainer).RetainFrames(on)
}

func (te *tracedEndpoint) Close() error {
	close(te.stop)
	te.wg.Wait()
	return te.CacheEndpoint.Close()
}

func (te *tracedEndpoint) forwardBatches() {
	defer te.wg.Done()
	h := te.h
	in := te.CacheEndpoint.Batches()
	for {
		select {
		case <-te.stop:
			return
		case b := <-in:
			if h.tracing.Load() {
				now := h.now()
				te.push.frames++
				te.push.refreshes += int64(len(b.Refreshes))
				if te.push.frames%64 == 1 {
					te.push.sized += int64(len(b.Refreshes))
					if b.Frame != nil {
						te.push.sizedBytes += int64(len(b.Frame.Bytes()))
					} else {
						f := codec.NewBatchFrame(b.Refreshes, b.SentUnix)
						te.push.sizedBytes += int64(len(f.Bytes()))
						f.Release()
					}
				}
				for i := range b.Refreshes {
					r := &b.Refreshes[i]
					if o := objectIndex(r.ObjectID); o%h.wl.stride == 0 {
						_, v := r.OriginAxis()
						te.batchLog = append(te.batchLog, arrival{int32(o), uint32(v), r.SentUnix - h.baseUnix, now})
					}
				}
			}
			select {
			case te.batches <- b:
			case <-te.stop:
				return
			}
		}
	}
}

func (te *tracedEndpoint) forwardReplies() {
	defer te.wg.Done()
	h := te.h
	in := te.CacheEndpoint.(transport.PollEndpoint).Replies()
	var enc codec.Encoder
	var buf []byte
	for {
		select {
		case <-te.stop:
			return
		case r := <-in:
			if h.tracing.Load() && !r.All {
				now := h.now()
				te.poll.frames++
				te.poll.refreshes += int64(len(r.Items))
				if te.poll.frames%64 == 1 {
					buf = enc.AppendReply(buf[:0], r)
					te.poll.sized += int64(len(r.Items))
					te.poll.sizedBytes += int64(len(buf))
				}
				for i := range r.Items {
					it := &r.Items[i]
					if o := objectIndex(it.ObjectID); it.Exists && o%h.wl.stride == 0 {
						_, v := it.OriginAxis()
						te.replyLog = append(te.replyLog, arrival{int32(o), uint32(v), r.SentUnix - h.baseUnix, now})
					}
				}
			}
			select {
			case te.replies <- r:
			case <-te.stop:
				return
			}
		}
	}
}

// spanSummary holds one histogram per span over every sampled (update, leaf)
// pair closed in the window. A pair inherits the transport, forward and apply
// spans of the refresh that carried it, so the span means add up to the mean
// visible latency exactly; whatever a missing log record leaves uncovered is
// trace.unattributed_ms.
type spanSummary struct {
	late, call, sched, hop1, forward, hop2, apply, unattributed hist
	visible                                                     hist
	pairs, carriers                                             int
}

// traceRecord is one carrying refresh in the trace file, times in ns since
// the run's clock origin (0 = not recorded).
type traceRecord struct {
	Leaf       int    `json:"leaf"`
	Object     string `json:"object"`
	Version    uint32 `json:"origin_version"`
	Covers     uint32 `json:"covers_versions"`
	Due        int64  `json:"due_ns"`
	UpdateT0   int64  `json:"update_t0_ns"`
	UpdateT1   int64  `json:"update_t1_ns"`
	OriginSent int64  `json:"origin_sent_ns"`
	RelayIn    int64  `json:"relay_in_ns,omitempty"`
	RelaySent  int64  `json:"relay_sent_ns,omitempty"`
	LeafIn     int64  `json:"leaf_in_ns"`
	Visible    int64  `json:"visible_ns"`
}

const traceFileRecords = 20000

func arrivalKey(obj int32, ver uint32) uint64 { return uint64(obj)<<32 | uint64(ver) }

func indexArrivals(logs ...[]arrival) map[uint64]arrival {
	n := 0
	for _, l := range logs {
		n += len(l)
	}
	idx := make(map[uint64]arrival, n)
	for _, l := range logs {
		for _, a := range l {
			// The first arrival of a version is the one that installed it; a
			// later poll of an unchanged object brings the same version again.
			if k := arrivalKey(a.obj, a.ver); idx[k].at == 0 {
				idx[k] = a
			}
		}
	}
	return idx
}

// joinTrace assembles the spans from the per-goroutine logs. It runs after
// the topology is closed.
func (h *harness) joinTrace() (*spanSummary, wireCounts) {
	sum := &spanSummary{}
	var wc wireCounts
	perNode := make([]map[uint64]arrival, len(h.eps))
	for n, te := range h.eps {
		perNode[n] = indexArrivals(te.batchLog, te.replyLog)
		wc.add(te.push)
		wc.add(te.poll)
	}
	var relay map[uint64]arrival
	if len(h.eps) > h.wl.leaves {
		relay = perNode[h.wl.leaves]
	}
	t0 := h.t0.Load()
	var records []traceRecord
	for leaf, ob := range h.obs {
		for _, ev := range ob.events {
			key := arrivalKey(ev.obj, ev.ver)
			leafIn, haveLeaf := perNode[leaf][key]
			// The refresh's own chain, walked backwards from the leaf; a span
			// whose record is missing stays 0 and surfaces as unattributed.
			var hop1, forward, hop2, apply, originSent int64
			rec := traceRecord{Leaf: leaf, Object: h.ids[ev.obj], Version: ev.ver, Covers: ev.ver - ev.prev, Visible: ev.at}
			if haveLeaf {
				apply = ev.at - leafIn.at
				rec.LeafIn = leafIn.at
				if relay == nil {
					originSent = leafIn.sent
					hop1 = leafIn.at - leafIn.sent
				} else if relayIn, ok := relay[key]; ok {
					originSent = relayIn.sent
					hop1 = relayIn.at - relayIn.sent
					forward = leafIn.sent - relayIn.at
					hop2 = leafIn.at - leafIn.sent
					rec.RelayIn, rec.RelaySent = relayIn.at, leafIn.sent
				}
			}
			rec.OriginSent = originSent
			for k := max(ev.prev+1, 2, ev.ver-min(ev.ver, coverCap)+1); k <= ev.ver; k++ {
				g, ok := h.sched.updateOf(int(ev.obj), k)
				if !ok {
					continue
				}
				due := h.dueOf(t0, g)
				late, call := h.genT0[g]-due, h.genT1[g]-h.genT0[g]
				var sched int64
				if originSent != 0 {
					sched = originSent - h.genT1[g]
				}
				visible := ev.at - due
				sum.late.add(late)
				sum.call.add(call)
				sum.sched.add(sched)
				sum.hop1.add(hop1)
				sum.forward.add(forward)
				sum.hop2.add(hop2)
				sum.apply.add(apply)
				sum.visible.add(visible)
				sum.unattributed.add(visible - (late + call + sched + hop1 + forward + hop2 + apply))
				sum.pairs++
				if k == ev.ver {
					rec.Due, rec.UpdateT0, rec.UpdateT1 = due, h.genT0[g], h.genT1[g]
				}
			}
			sum.carriers++
			if len(records) < traceFileRecords {
				records = append(records, rec)
			}
		}
	}
	h.writeTrace(sum, records)
	return sum, wc
}

// spanMetrics reports each span as p50 and mean under the per-layer names.
func (s *spanSummary) spanMetrics(call *hist) map[string]float64 {
	out := map[string]float64{}
	put := func(name string, hs *hist, div float64) {
		out[name+"_p50"] = hs.quantile(0.5) / div
		out[name+"_mean"] = hs.mean() / div
	}
	put("source.update_call_ns", call, 1) // every update of the window, not only the sampled ones
	put("source.sched_wait_ms", &s.sched, 1e6)
	put("transport.hop1_ms", &s.hop1, 1e6)
	put("node.forward_ms", &s.forward, 1e6)
	put("transport.hop2_ms", &s.hop2, 1e6)
	put("cache.apply_ms", &s.apply, 1e6)
	put("trace.unattributed_ms", &s.unattributed, 1e6)
	return out
}

func (h *harness) writeTrace(sum *spanSummary, records []traceRecord) {
	dir := filepath.Join(benchDir(), "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		warnf("trace not written: %v", err)
		return
	}
	ms := func(hs *hist) map[string]float64 {
		return map[string]float64{"p50_ms": hs.quantile(0.5) / 1e6, "mean_ms": hs.mean() / 1e6}
	}
	doc := map[string]any{
		"workload":       h.wl.name,
		"seed":           h.seed,
		"written":        time.Now().UTC().Format(time.RFC3339),
		"object_stride":  h.wl.stride,
		"pairs":          sum.pairs,
		"refreshes":      sum.carriers,
		"records_capped": traceFileRecords,
		"summary": map[string]any{
			"visible": ms(&sum.visible), "gen_late": ms(&sum.late), "update_call": ms(&sum.call),
			"sched_wait": ms(&sum.sched), "hop1": ms(&sum.hop1), "forward": ms(&sum.forward),
			"hop2": ms(&sum.hop2), "apply": ms(&sum.apply), "unattributed": ms(&sum.unattributed),
		},
		"refresh_records": records,
	}
	path := filepath.Join(dir, "trace_"+h.wl.name+".json")
	f, err := os.Create(path)
	if err != nil {
		warnf("trace not written: %v", err)
		return
	}
	err = json.NewEncoder(f).Encode(doc)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		warnf("trace %s: %v", path, err)
	}
}
