//go:build !race

// The allocation assertions are meaningless under -race (the detector
// instruments allocations), so this file is excluded from the race job.

package runtime

import (
	"fmt"
	"net"
	stdruntime "runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"bestsync/internal/metric"
	"bestsync/internal/transport"
	"bestsync/internal/wire"
	"bestsync/internal/wire/codec"
)

// TestGroupUpdateSteadyStateAllocs pins the tentpole's hot-path property:
// once the store and the group are warm, Source.Update with group dispatch
// is allocation-free — one shared tracker/heap touch per update instead of
// one per member, with no per-update garbage.
func TestGroupUpdateSteadyStateAllocs(t *testing.T) {
	conns := []transport.SourceConn{newFrameConn("al-a"), newFrameConn("al-b")}
	dests := make([]Destination, len(conns))
	for i, c := range conns {
		dests[i] = Destination{CacheID: fmt.Sprintf("member-%d", i), Conn: c}
	}
	// A starved budget keeps the flusher idle so the measurement sees the
	// pure observe/requeue path, not racing broadcasts.
	src, err := NewFanoutSource(SourceConfig{
		ID: "al", Metric: metric.ValueDeviation,
		Bandwidth: 0.001, Tick: time.Hour,
		Group: GroupConfig{Enabled: true},
	}, dests)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	const objects = 16
	ids := make([]string, objects)
	for i := range ids {
		ids[i] = fmt.Sprintf("al/obj-%d", i)
		src.Update(ids[i], 1) // warm the store, sessions and group state
	}

	v := 2.0
	avg := testing.AllocsPerRun(200, func() {
		for _, id := range ids {
			src.Update(id, v)
		}
		v++
	})
	perUpdate := avg / objects
	if perUpdate > 0.0625 { // tolerate a stray background allocation
		t.Fatalf("steady-state group Update allocates %.3f allocs/update, want 0", perUpdate)
	}
}

// TestSourceUpdateSteadyStateAllocs: on a source whose destinations are each
// a group of its own — one, and the four of the fanout_classic shape — Update
// over known ids allocates nothing: the id resolves through the source's
// idIndex and each group's observe/requeue runs in place. First insertion of
// N ids allocates nothing per object — object state lands in a slab chunk of
// 512 — and otherwise only where a table or slice doubles: O(log N) per
// group, not O(N), so a cold start (setup) stays cheap.
func TestSourceUpdateSteadyStateAllocs(t *testing.T) {
	for _, groups := range []int{1, 4} {
		t.Run(fmt.Sprintf("%d groups", groups), func(t *testing.T) {
			dests := make([]Destination, groups)
			for i := range dests {
				dests[i] = Destination{CacheID: fmt.Sprintf("leaf-%d", i), Conn: nullFrameConn{fb: make(chan wire.Feedback)}}
			}
			// A starved budget and an hour-long tick keep the flusher idle, so
			// the measurement sees only the update path.
			src, err := NewFanoutSource(SourceConfig{
				ID: "al", Metric: metric.ValueDeviation, Bandwidth: 0.001, Tick: time.Hour,
			}, dests)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()

			const objects = 4096
			ids := make([]string, objects)
			for i := range ids {
				ids[i] = fmt.Sprintf("tenant-%04d/obj-1", i)
			}
			// AllocsPerRun would insert during its warm-up run; count by hand.
			var before, after stdruntime.MemStats
			stdruntime.ReadMemStats(&before)
			for _, id := range ids {
				src.Update(id, 1)
			}
			stdruntime.ReadMemStats(&after)
			t.Logf("first insertion of %d ids: %d allocations", objects, after.Mallocs-before.Mallocs)
			// Eight slab chunks; everything else doubles: the id index, the
			// slab's chunk list, and each group's per-object state and priority
			// queue, a dozen doublings each (log2 4096 = 12).
			if n := after.Mallocs - before.Mallocs; n > uint64(16*12*groups) {
				t.Errorf("first insertion of %d ids allocated %d times, want O(log N) per group", objects, n)
			}

			v := 2.0
			avg := testing.AllocsPerRun(20, func() {
				for _, id := range ids {
					src.Update(id, v)
				}
				v++
			})
			if perUpdate := avg / objects; perUpdate > 0 {
				t.Errorf("steady-state Update allocates %.4f allocs/update, want 0", perUpdate)
			}
		})
	}
}

// TestSourceHeapPerObject bounds the live heap a Source keeps per object, in
// the shape of a paper_star origin (a group of one): the objState in its slab
// chunk, the id index words, the group's schedObj and its priority-queue
// entry. An extra objState field, a chunk one size class too big or a
// provenance column an origin allocates all push it over the bound. A relay
// adds its 16 B provenance entry per object — the version and a pointer to the
// one route every value that arrived the same way shares — and little else:
// a Provenance per object, or a route per object, pushes it over its bound.
// Both id shapes are measured. Walking the slab allocates nothing, and a
// group of a few objects holds a few scheduler records, not a whole chunk.
func TestSourceHeapPerObject(t *testing.T) {
	const objects, originBound = 16384, 164
	memo := viaMemo{id: "relay"}
	relayed := Provenance{Origin: "src-0", Hops: 1, Via: memo.path(nil), Epoch: 77}
	for _, leg := range []struct {
		role  string
		relay bool
		bound float64
	}{{"origin", false, originBound}, {"relay", true, originBound + 24}} {
		for _, shape := range []string{"src-0/o%05d", "sensor-%05d/temperature"} {
			ids := make([]string, objects) // allocated before the baseline: not counted
			for i := range ids {
				ids[i] = fmt.Sprintf(shape, i)
			}
			before := liveHeap()
			// A starved budget keeps the flusher idle: nothing is sent, every
			// object stays queued.
			src, err := NewFanoutSource(SourceConfig{
				ID: "src-0", Metric: metric.ValueDeviation, Bandwidth: 0.001, Tick: time.Hour,
				Group: GroupConfig{Enabled: true},
			}, []Destination{{CacheID: "leaf-0", Conn: nullFrameConn{fb: make(chan wire.Feedback)}}})
			if err != nil {
				t.Fatal(err)
			}
			for i, id := range ids {
				if leg.relay {
					p := relayed
					p.Version = uint64(i + 1)
					src.UpdateFrom(id, 1, p)
				} else {
					src.Update(id, 1)
				}
			}
			perObject := float64(liveHeap()-before) / objects
			stdruntime.KeepAlive(ids) // counted in neither reading: the objects share the ids
			t.Logf("%s, %s: live heap %.1f B/object over %d objects", leg.role, shape, perObject, objects)
			if perObject > leg.bound {
				t.Errorf("%s, %s: a Source holds %.1f B of live heap per object, want ≤ %.0f", leg.role, shape, perObject, leg.bound)
			}

			src.mu.Lock()
			n := 0
			if allocs := testing.AllocsPerRun(10, func() {
				for o := range src.order.all() {
					n += int(o.key & 1)
				}
			}); allocs > 0 || n == 0 {
				t.Errorf("walking the slab allocated %.0f times (n=%d), want 0", allocs, n)
			}
			src.mu.Unlock()
			src.Close()
		}
	}

	src, err := NewFanoutSource(SourceConfig{ID: "src-0", Metric: metric.ValueDeviation, Bandwidth: 0.001, Tick: time.Hour},
		[]Destination{{CacheID: "leaf-0", Conn: nullFrameConn{fb: make(chan wire.Feedback)}}})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for i := range 10 {
		src.Update(fmt.Sprintf("src-0/o%05d", i), 1)
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	held := 0
	for _, c := range src.sessions[0].group.objs.chunks {
		held += cap(c) * int(unsafe.Sizeof(schedObj{}))
	}
	if held >= 1<<10 {
		t.Errorf("a group of one over 10 objects holds %d B of scheduler records, want < 1 KiB", held)
	}
}

// TestSourceRoutesHeapDoesNotAccumulate: a relay whose 4 096 objects once
// held a route each, until one path overwrote them all, holds what a relay
// that only ever saw the one path holds, give or take its route memo. It
// lives here, out of the race job, where the reading misses 4 KiB now and
// then; the route counts it rests on run there too, in
// TestSourceRoutesDoNotAccumulate.
func TestSourceRoutesHeapDoesNotAccumulate(t *testing.T) {
	plain, sprayed := relayRoutesHeld(t, false), relayRoutesHeld(t, true)
	t.Logf("one path: %d B; a path per object, then one path: %d B", plain, sprayed)
	if d := sprayed - plain; d > 4<<10 || d < -4<<10 {
		t.Errorf("a relay that once held 4096 routes keeps %d B more than one that never did, want within 4 KiB", d)
	}
}

// TestGroupEarlyPassSteadyStateAllocs is the sibling that passes the size
// trigger instead of being rejected by it: every iteration queues frames
// against an ample bucket, so it pays for the updates, the wakes, the early
// passes on the flusher goroutine and the fan-out of their frames to two
// frame-capable members. What that allocates is what cutting the same frames
// on a tick allocates — nothing once the pooled batches and frames are warm:
// no closure, timer or channel per pass. It runs with a round of eight full
// frames, with a round of two, and with two and a partial rest, whose carry
// moves the next round's trigger. Each round is queued under the pass lock,
// so its pass cuts the same frames every time.
func TestGroupEarlyPassSteadyStateAllocs(t *testing.T) {
	for _, leg := range []struct{ frames, rest int }{{8, 0}, {2, 0}, {2, 10}} {
		name := fmt.Sprintf("%d frames", leg.frames)
		if leg.rest > 0 {
			name += fmt.Sprintf(" and %d", leg.rest)
		}
		t.Run(name, func(t *testing.T) {
			clock := newFakeClock()
			src, err := NewFanoutSource(SourceConfig{
				ID: "al", Metric: metric.ValueDeviation,
				Bandwidth: 1e9, Tick: time.Hour, Params: pinnedParams(1e-6), Now: clock.Now,
				Group: GroupConfig{Enabled: true, Queue: 64},
			}, []Destination{
				{CacheID: "a", Conn: nullFrameConn{fb: make(chan wire.Feedback)}},
				{CacheID: "b", Conn: nullFrameConn{fb: make(chan wire.Feedback)}},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			g := src.group
			ids := make([]string, leg.frames*g.cfg.MaxBatch+leg.rest)
			for i := range ids {
				ids[i] = fmt.Sprintf("al/obj-%d", i)
			}
			v, want := 1.0, 0
			round := func() {
				clock.advance(time.Millisecond)
				g.passMu.Lock()
				for _, id := range ids {
					src.Update(id, v)
				}
				g.passMu.Unlock()
				v++
				want += len(ids)
				for done := false; !done; stdruntime.Gosched() {
					src.mu.Lock()
					done = g.scheduled == want && !g.waking
					src.mu.Unlock()
				}
			}
			round() // inserts
			round() // sizes the pooled batches, frames and scratch
			allocs := pooledAllocsPerRun(50, round)
			src.mu.Lock()
			early, batches := g.earlyBatches, g.batches
			src.mu.Unlock()
			perRound := leg.frames
			if leg.rest > 0 {
				perRound++
			}
			if early != batches || early != 53*perRound {
				t.Errorf("%d early batches of %d, want all %d cut by the size trigger", early, batches, 53*perRound)
			}
			if allocs > 0 {
				t.Errorf("%s of updates and their early passes allocated %.1f times, want 0", name, allocs)
			}
		})
	}
}

// TestGroupWorkerRunAllocatesNothing: a sender worker writing a run of
// three shared frames to a loopback TCP connection in one write allocates
// nothing once warm — its run and frame scratch, the connection's buffer
// list and the socket's iovecs are all reused — and neither does the server
// reading them.
func TestGroupWorkerRunAllocatesNothing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep := transport.Serve(ln, 16)
	defer ep.Close()
	var got atomic.Int64
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case b := <-ep.Batches():
				got.Add(int64(len(b.Refreshes)))
				b.Release()
			case <-stop:
				return
			}
		}
	}()
	conn, err := transport.Dial(ln.Addr().String(), "src")
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewFanoutSource(SourceConfig{
		ID: "src", Metric: metric.ValueDeviation, Bandwidth: 1e9, Tick: time.Hour,
		Group: GroupConfig{Enabled: true},
	}, []Destination{{CacheID: "leaf", Conn: conn}})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	g, ss := src.group, src.sessions[0]
	rs := make([]wire.Refresh, 64)
	for i := range rs {
		rs[i] = wire.Refresh{SourceID: "src", ObjectID: fmt.Sprintf("src/o%03d", i), Version: 1}
	}
	// One batch held by the test, sent three times a round.
	b := &groupBatch{g: g, frame: codec.NewBatchFrame(rs, 1)}
	defer b.frame.Release()
	b.refs.Store(1)
	run := make([]sendItem, 3)
	for i := range run {
		run[i] = sendItem{g: g, sess: ss, conn: conn, batch: b, n: len(rs)}
	}
	w := &groupWorker{}
	var want int64
	round := func() {
		b.refs.Add(int32(len(run)))
		ss.inflight.Add(int32(len(run)))
		w.send(run)
		want += int64(len(run) * len(rs))
		for got.Load() < want {
			stdruntime.Gosched()
		}
	}
	round()
	if allocs := pooledAllocsPerRun(50, round); allocs > 0 {
		t.Errorf("a run of three frames over TCP allocated %.1f times, want 0", allocs)
	}
	if e := g.sendErrors.Load(); e != 0 {
		t.Fatalf("%d send errors", e)
	}
}

// TestCacheReapplySteadyStateAllocs: refreshing objects the cache already
// holds allocates nothing — the batch is applied in one pass over the one
// refresh slice, and an entry is overwritten in place.
// (With an OnApply hook the only addition is the cache's reused report
// buffer.)
func TestCacheReapplySteadyStateAllocs(t *testing.T) {
	const objects, batch = 1024, 64
	for _, hook := range []bool{false, true} {
		var applied atomic.Int64
		var onApply func([]wire.Refresh)
		if hook {
			onApply = func(rs []wire.Refresh) { applied.Add(int64(len(rs))) }
		}
		c := quietCache(onApply)
		batches := make([][]wire.Refresh, objects/batch)
		for b := range batches {
			batches[b] = make([]wire.Refresh, batch)
			for i := range batches[b] {
				batches[b][i] = relayed("relay", fmt.Sprintf("root/o%04d", b*batch+i), 0, 0)
			}
		}
		round := func() {
			for _, rs := range batches {
				for i := range rs {
					rs[i].Version++
					rs[i].OriginVersion++
				}
			}
			dispatchAll(c, batches)
		}
		round() // inserts
		round() // sizes the pooled batch state and the ack sets
		before := c.Stats().Refreshes
		allocs := pooledAllocsPerRun(10, round)
		if got := c.Stats().Refreshes - before; got != 11*objects {
			t.Errorf("hook=%v: %d refreshes applied during the measurement, want %d", hook, got, 11*objects)
		}
		if got := applied.Load(); hook && got != 13*objects {
			t.Errorf("OnApply saw %d refreshes, want %d", got, 13*objects)
		}
		if allocs > 0 {
			t.Errorf("hook=%v: re-applying %d refreshes allocated %.0f times, want 0", hook, objects, allocs)
		}
		c.Close()
	}
}

// TestCacheIntakeSteadyStateAllocs: frames written over loopback TCP into
// transport.Serve and a Cache allocate nothing per frame once warm, whichever
// way the batch ends — applied and reported to OnApply, dropped whole by
// Reject (the route's no-task path), or handed with its retained frame to
// OnForward. The decoded batch is the codec's pooled one, so a path that
// failed to release it would show here as allocations.
func TestCacheIntakeSteadyStateAllocs(t *testing.T) {
	const objects, batch = 256, 64
	for _, leg := range []string{"apply", "reject", "forward"} {
		t.Run(leg, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ep := transport.Serve(ln, 16)
			defer ep.Close()
			// seen counts the refreshes that reached the leg's hook, which
			// runs on the dispatcher.
			var seen atomic.Int64
			// The intake opens on the first tick; a long one keeps the tick's
			// surplus feedback out of the measurement.
			cfg := CacheConfig{ID: "leaf", Bandwidth: 1e9, Tick: 500 * time.Millisecond}
			switch leg {
			case "apply":
				cfg.OnApply = func(rs []wire.Refresh) { seen.Add(int64(len(rs))) }
			case "reject":
				cfg.Reject = func(wire.Refresh) bool { seen.Add(1); return true }
			case "forward":
				ep.(transport.FrameRetainer).RetainFrames(true)
				cfg.OnForward = func(rs []wire.Refresh, f *codec.Frame, _ []bool) {
					seen.Add(int64(len(rs)))
					f.Release()
				}
			}
			c := NewCache(cfg, ep)
			defer c.Close()
			conn, err := transport.Dial(ln.Addr().String(), "src")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			fs := conn.(transport.FrameSender)

			rs := make([]wire.Refresh, objects)
			for i := range rs {
				rs[i] = wire.Refresh{SourceID: "src", ObjectID: fmt.Sprintf("src/o%03d", i), Epoch: 1}
			}
			var want int64
			round := func() {
				for i := range rs {
					rs[i].Version++
					rs[i].Value++
				}
				for b := 0; b < objects; b += batch {
					f := codec.NewBatchFrame(rs[b:b+batch], 1)
					if err := fs.SendFrame(f); err != nil {
						t.Fatal(err)
					}
					f.Release()
				}
				want += objects
				for seen.Load() < want {
					stdruntime.Gosched()
				}
			}
			// The first tick opens the intake and sends its feedback; the
			// measurement runs well inside the next one.
			<-conn.Feedback()
			for i := 0; i < 8; i++ {
				round() // inserts, then warms the pools and the intern table
			}
			if allocs := pooledAllocsPerRun(20, round); allocs > 0 {
				t.Errorf("%d frames allocated %.1f times, want 0", objects/batch, allocs)
			}
		})
	}
}

// TestPollRoundTripSteadyStateAllocs: once warm, a CGM1 cache polling a
// Source over loopback TCP allocates next to nothing per round trip — the
// hinted poll and its reply are decoded into pooled slices that the source's
// session and the cache's dispatcher release, and neither side's scheduler
// builds a map or a slice per poll. The count covers the whole process: both
// loops, both read loops and the test's own updates and reads.
func TestPollRoundTripSteadyStateAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rt := newPollRoundTrip(t, 64)
	for i := 0; i < 10; i++ {
		rt.next(t) // discovery, inserts, then warm pools, maps and buffers
	}
	var before, after stdruntime.MemStats
	trips := rt.answered()
	stdruntime.ReadMemStats(&before)
	for i := 0; i < 20; i++ {
		rt.next(t)
	}
	stdruntime.ReadMemStats(&after)
	trips = rt.answered() - trips
	perTrip := float64(after.Mallocs-before.Mallocs) / float64(trips)
	t.Logf("%d round trips, %d allocations: %.3f per round trip", trips, after.Mallocs-before.Mallocs, perTrip)
	// A poll longer than any before it still grows a reused buffer or map
	// once, so the bound is not 0; releasing nothing costs about 12.
	if perTrip > 0.5 {
		t.Errorf("%.2f allocations per poll round trip, want about 0", perTrip)
	}
}

// dispatchAll pushes batches through the dispatcher path, which applies them.
func dispatchAll(c *Cache, batches [][]wire.Refresh) {
	for _, rs := range batches {
		c.dispatch(transport.InboundBatch{RefreshBatch: wire.RefreshBatch{Refreshes: rs}})
	}
}

// TestCacheHeapPerObject bounds the live heap a cache keeps per object: the
// 64 B slot in its 32 KiB chunk and the id index words, for ids that differ early and for ids that share a long suffix. An
// extra slot field, a route per object or a chunk one size class too big
// push it over the bound.
func TestCacheHeapPerObject(t *testing.T) {
	const objects, batch = 16384, 64
	for _, shape := range []string{"src-0/o%05d", "sensor-%05d/temperature"} {
		batches := make([][]wire.Refresh, objects/batch) // allocated before the baseline: not counted
		for b := range batches {
			batches[b] = make([]wire.Refresh, batch)
			for i := range batches[b] {
				batches[b][i] = wire.Refresh{SourceID: "src-0", ObjectID: fmt.Sprintf(shape, b*batch+i), Value: 1, Version: 1, Epoch: 1}
			}
		}
		before := liveHeap()
		c := quietCache(nil)
		dispatchAll(c, batches)
		perObject := float64(liveHeap()-before) / objects
		stdruntime.KeepAlive(batches) // the slots share the ids
		if n := c.Len(); n != objects {
			t.Fatalf("%s: %d objects cached, want %d", shape, n, objects)
		}
		c.Close()
		t.Logf("%s: cache live heap %.1f B/object over %d objects", shape, perObject, objects)
		if perObject > 100 {
			t.Errorf("%s: a cache holds %.1f B of live heap per object, want ≤ 100", shape, perObject)
		}
	}
}

// TestCacheRoutesDoNotAccumulate: a sender that gives every object its own
// path costs one route per object only while those entries live. Once a
// one-path sender has overwritten them all, the cache holds what a cache that
// only ever saw the one path holds, give or take the store's route memo.
func TestCacheRoutesDoNotAccumulate(t *testing.T) {
	const objects, batch = 4096, 64
	ids := make([]string, objects)
	for i := range ids {
		ids[i] = fmt.Sprintf("root/o%05d", i)
	}
	// round applies version v of every object, over path(i); the refreshes
	// are garbage once it returns.
	round := func(c *Cache, v uint64, path func(i int) []string) {
		batches := make([][]wire.Refresh, objects/batch)
		for b := range batches {
			batches[b] = make([]wire.Refresh, batch)
			for i := range batches[b] {
				r := relayed("relay", ids[b*batch+i], v, v)
				r.Via = path(b*batch + i)
				batches[b][i] = r
			}
		}
		dispatchAll(c, batches)
	}
	onePath := func(int) []string { return []string{"relay"} }
	routes := func(c *Cache) int {
		seen := map[*route]bool{}
		c.mu.RLock()
		for i := int32(0); i < c.store.n; i++ {
			seen[c.store.at(i).rt] = true
		}
		c.mu.RUnlock()
		return len(seen)
	}
	heldBy := func(spray bool) int64 {
		before := liveHeap()
		c := quietCache(nil)
		defer c.Close()
		if spray {
			round(c, 1, func(i int) []string { return []string{fmt.Sprintf("hop-%05d", i)} })
			if n := routes(c); n != objects {
				t.Fatalf("a path per object left %d routes, want %d", n, objects)
			}
		}
		round(c, 2, onePath)
		if n := routes(c); n != 1 {
			t.Fatalf("one sender over one path left %d routes, want one", n)
		}
		return liveHeap() - before
	}
	plain, sprayed := heldBy(false), heldBy(true)
	t.Logf("one path: %d B; a path per object, then one path: %d B", plain, sprayed)
	if d := sprayed - plain; d > 4<<10 || d < -4<<10 {
		t.Errorf("a cache that once held %d routes keeps %d B more than one that never did, want within 4 KiB", objects, d)
	}
}

// pooledAllocsPerRun is testing.AllocsPerRun with the collector off, for a
// path that recycles through a sync.Pool. Two GC cycles inside the measurement
// empty a pool and the next round refills it: forcing two runtime.GC() calls
// before each round of TestCacheReapplySteadyStateAllocs makes it allocate
// about 230 times per round. An automatic GC that happens to land there is
// what made that test fail now and then in a full test run, so the count
// must not depend on when the collector runs.
func pooledAllocsPerRun(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

// nullFrameConn is a group member that accepts every frame and does nothing,
// so an allocation count sees only the sender's side.
type nullFrameConn struct{ fb chan wire.Feedback }

func (nullFrameConn) SendRefresh(wire.Refresh) error   { return nil }
func (nullFrameConn) SendBatch([]wire.Refresh) error   { return nil }
func (nullFrameConn) SendFrame(*codec.Frame) error     { return nil }
func (c nullFrameConn) Feedback() <-chan wire.Feedback { return c.fb }
func (nullFrameConn) Close() error                     { return nil }

// TestSpliceAtAxisAcksAllocateNothing: a relay whose children acknowledge
// every relayed apply (so each member holds an ack AT the canonical axis for
// every object) splices batch after batch without materializing the decoded
// patch — the whole forward is allocation-free, which codec.PatchForward
// (one slice and one path copy per item) could not be.
func TestSpliceAtAxisAcksAllocateNothing(t *testing.T) {
	f := newSpliceFixture(t, nullFrameConn{fb: make(chan wire.Feedback)}, nullFrameConn{fb: make(chan wire.Feedback)})
	defer f.src.Close()
	f.forward(t)
	f.ackAll()
	allocs := pooledAllocsPerRun(50, func() {
		f.forward(t)
		f.ackAll()
	})
	if allocs > 0 {
		t.Errorf("splice forward with at-the-axis acks allocated %.1f times per batch, want 0", allocs)
	}
	if st := f.src.Stats(); st.Group.Fallbacks != 0 || st.Group.SplicedBatches != 52 {
		t.Errorf("fallbacks=%d spliced batches=%d, want 0 and 52", st.Group.Fallbacks, st.Group.SplicedBatches)
	}
}

// TestRelayHeldColumnStaysNil: in a steady origin → relay → leaf tree over
// TCP the leaf applies every copy and drops none, so it acks nothing, and the
// relay's per-member held column — 16 B per object per child once allocated —
// is never allocated. An ack on the apply path brings it back.
func TestRelayHeldColumnStaysNil(t *testing.T) {
	const objects, rounds = 2048, 3
	leafEp, leafAddr := serveTCP(t)
	defer leafEp.Close()
	leaf := NewCache(CacheConfig{ID: "leaf", Bandwidth: 1e5, Tick: 5 * time.Millisecond}, leafEp)
	defer leaf.Close()
	upEp, upAddr := serveTCP(t)
	defer upEp.Close()
	relay, err := NewNode(NodeConfig{
		ID:            "relay",
		Intake:        CacheConfig{Bandwidth: 1e5, Tick: 5 * time.Millisecond},
		PeerBandwidth: 1e5,
		Metric:        metric.ValueDeviation,
		Params:        pinnedParams(1e-6),
		Tick:          5 * time.Millisecond,
	}, upEp, []Destination{{CacheID: "leaf", Conn: dialTCP(t, leafAddr, "relay")}})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	origin, err := NewFanoutSource(SourceConfig{
		ID: "root", Metric: metric.ValueDeviation, Bandwidth: 1e5, Tick: 5 * time.Millisecond,
		Params: pinnedParams(1e-6),
	}, []Destination{{CacheID: "relay", Conn: dialTCP(t, upAddr, "root")}})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()

	ids := make([]string, objects)
	for i := range ids {
		ids[i] = fmt.Sprintf("root/o%05d", i)
	}
	for round := 1; round <= rounds; round++ {
		for i, id := range ids {
			origin.Update(id, float64(round*objects+i))
		}
		waitFor(t, 10*time.Second, func() bool {
			for i, id := range ids {
				if e, ok := leaf.Get(id); !ok || e.Value != float64(round*objects+i) {
					return false
				}
			}
			return true
		}, fmt.Sprintf("leaf at round %d", round))
	}
	// Feedback keeps flowing: a few more rounds of it reach the relay.
	fb := relay.Stats().Peers.Sessions[0].Feedbacks
	waitFor(t, 5*time.Second, func() bool { return relay.Stats().Peers.Sessions[0].Feedbacks >= fb+3 },
		"feedback from the leaf")

	if st := leaf.Stats(); st.Stale != 0 {
		t.Fatalf("the leaf dropped %d copies in a steady tree, want none", st.Stale)
	}
	src := relay.Source()
	src.mu.Lock()
	defer src.mu.Unlock()
	for _, ss := range src.sessions {
		if ss.held != nil || len(ss.heldPending) != 0 {
			t.Errorf("relay session %s holds a %d B held column and %d parked acks, want none",
				ss.dest.CacheID, cap(ss.held)*int(unsafe.Sizeof(heldAxis{})), len(ss.heldPending))
		}
	}
}
