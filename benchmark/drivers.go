package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	stdruntime "runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"bestsync/internal/bandwidth"
	"bestsync/internal/cgm"
	"bestsync/internal/engine"
	"bestsync/internal/metric"
	"bestsync/internal/priority"
	"bestsync/internal/runtime"
	"bestsync/internal/transport"
	"bestsync/internal/wire"
	"bestsync/internal/wire/codec"
	simload "bestsync/internal/workload"
)

// The isolated drivers time calls into one layer's public functions at a
// time: fixed iteration counts, the collector off inside the timed section,
// and the process CPU clock wherever the section waits on another goroutine
// (cmd/syncbench -relaycost's method, re-implemented here so the benchmark
// stands alone). They say what a layer costs by itself; the traced workloads
// say what it costs in the pipeline.

const (
	driverBatch   = 64
	driverObjects = 16384
)

// timed runs fn with the collector off and returns its wall time, process
// CPU time and heap allocations.
func timed(fn func()) (wallNs, cpuNs float64, mallocs float64) {
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	stdruntime.GC()
	var m0, m1 stdruntime.MemStats
	stdruntime.ReadMemStats(&m0)
	cpu0, start := processCPUNs(), time.Now()
	fn()
	wall, cpu := time.Since(start), processCPUNs()-cpu0
	stdruntime.ReadMemStats(&m1)
	return float64(wall), float64(cpu), float64(m1.Mallocs - m0.Mallocs)
}

// sampleBatch is one origin-shaped batch: n objects starting at first, all at
// the given version.
func sampleBatch(ids []string, first, n int, version uint64) []wire.Refresh {
	rs := make([]wire.Refresh, n)
	for i := range rs {
		rs[i] = wire.Refresh{
			SourceID:  "src-0",
			ObjectID:  ids[(first+i)%len(ids)],
			Value:     float64(version),
			Version:   version,
			Epoch:     7,
			Threshold: 1e-6,
			SentUnix:  1,
		}
	}
	return rs
}

// sinkConn is a destination that discards what it is sent, counting frames
// and batches so a lockstep driver can wait for delivery on progress pulses
// rather than on CPU-costing sleeps.
type sinkConn struct {
	sends    atomic.Int64
	progress chan struct{}
	fb       chan wire.Feedback
	polls    chan wire.Poll
}

func newSink() *sinkConn {
	return &sinkConn{progress: make(chan struct{}, 1), fb: make(chan wire.Feedback), polls: make(chan wire.Poll)}
}

func (s *sinkConn) sent() error {
	s.sends.Add(1)
	select {
	case s.progress <- struct{}{}:
	default:
	}
	return nil
}

func (s *sinkConn) SendRefresh(wire.Refresh) error { return s.sent() }
func (s *sinkConn) SendBatch([]wire.Refresh) error { return s.sent() }
func (s *sinkConn) SendFrame(*codec.Frame) error   { return s.sent() }
func (s *sinkConn) FramesEnabled() bool            { return true }
func (s *sinkConn) Feedback() <-chan wire.Feedback { return s.fb }
func (s *sinkConn) Polls() <-chan wire.Poll        { return s.polls }
func (s *sinkConn) SendReply(wire.PollReply) error { return nil }
func (s *sinkConn) Close() error                   { return nil }
func (s *sinkConn) waitSends(n int64, within time.Duration) error {
	deadline := time.After(within)
	for s.sends.Load() < n {
		select {
		case <-s.progress:
		case <-deadline:
			return fmt.Errorf("sink saw %d of %d sends", s.sends.Load(), n)
		}
	}
	return nil
}

// feedEndpoint is a synthetic intake: batches pushed into it reach the cache
// exactly as a binary TCP server hands them over after its decode.
type feedEndpoint struct{ batches chan transport.InboundBatch }

func newFeed() *feedEndpoint                                     { return &feedEndpoint{make(chan transport.InboundBatch, 4)} }
func (f *feedEndpoint) Batches() <-chan transport.InboundBatch   { return f.batches }
func (f *feedEndpoint) SendFeedback(string, wire.Feedback) error { return nil }
func (f *feedEndpoint) Sources() []string                        { return []string{"src-0"} }
func (f *feedEndpoint) Close() error                             { return nil }

// drivers collects the isolated metrics; a driver that cannot finish records
// why and leaves its metrics at 0.
type drivers struct {
	ids    []string
	out    map[string]float64
	failed []string
}

func runDrivers() (map[string]float64, []string) {
	d := &drivers{out: map[string]float64{}}
	d.ids = make([]string, driverObjects)
	for i := range d.ids {
		d.ids[i] = fmt.Sprintf("src-0/o%05d", i)
	}
	for _, m := range driverNames {
		d.out[m.name] = 0
	}
	for _, step := range []struct {
		name string
		fn   func() error
	}{
		{"codec", d.codec}, {"tcp", d.tcp}, {"batcher", d.batcher}, {"local", d.local},
		{"cache", d.cache}, {"update", d.update}, {"deliver", d.deliver}, {"forward", d.forward},
		{"core", d.core}, {"engine", d.engine},
	} {
		if err := step.fn(); err != nil {
			d.failed = append(d.failed, step.name+": "+err.Error())
		}
	}
	return d.out, d.failed
}

func (d *drivers) codec() error {
	const iters = 4000
	rs := sampleBatch(d.ids, 0, driverBatch, 3)
	per := float64(iters * driverBatch)
	bytesOut := 0
	wall, _, encAllocs := timed(func() {
		for i := 0; i < iters; i++ {
			f := codec.NewBatchFrame(rs, 1)
			bytesOut = len(f.Bytes())
			f.Release()
		}
	})
	d.out["codec.encode_ns_per_refresh"] = wall / per
	d.out["codec.frame_bytes_per_refresh"] = float64(bytesOut) / driverBatch

	frame := codec.NewBatchFrame(rs, 1)
	defer frame.Release()
	var stream bytes.Buffer
	for i := 0; i < iters; i++ {
		stream.Write(frame.Bytes())
	}
	dec := codec.NewDecoder(bytes.NewReader(stream.Bytes()))
	var derr error
	wall, _, decAllocs := timed(func() {
		for i := 0; i < iters && derr == nil; i++ {
			env, err := dec.ReadCacheBound()
			if err == nil && (env.Batch == nil || len(env.Batch.Refreshes) != driverBatch) {
				err = fmt.Errorf("decoded batch is not %d refreshes", driverBatch)
			}
			derr = err
		}
	})
	if derr != nil {
		return derr
	}
	d.out["codec.decode_ns_per_refresh"] = wall / per

	keep := make([]bool, driverBatch)
	versions := make([]uint64, driverBatch)
	for i := range keep {
		keep[i], versions[i] = true, 4
	}
	patch := codec.ForwardPatch{SourceID: "relay", Epoch: 9, Threshold: 1e-6, SentUnix: 2}
	var serr error
	wall, _, spliceAllocs := timed(func() {
		for i := 0; i < iters && serr == nil; i++ {
			view, err := codec.ParseBatchFrame(frame.Bytes())
			if err != nil {
				serr = err
				return
			}
			codec.SpliceForward(view, keep, versions, patch).Release()
			view.Release()
		}
	})
	if serr != nil {
		return serr
	}
	d.out["codec.splice_ns_per_refresh"] = wall / per
	d.out["codec.allocs_per_batch"] = (encAllocs + decAllocs + spliceAllocs) / iters
	return nil
}

// tcpCost sends pre-encoded frames of batch refreshes over loopback TCP and
// takes them out of the serving endpoint: write + read + validate + decode.
func (d *drivers) tcpCost(batch, frames int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	ep := transport.Serve(ln, serveBuffer)
	defer ep.Close()
	conn, err := dial(ln.Addr().String(), "src-0")
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	fs := conn.(transport.FrameSender)
	frame := codec.NewBatchFrame(sampleBatch(d.ids, 0, batch, 3), 1)
	defer frame.Release()
	pump := func(n int) error {
		sendErr := make(chan error, 1)
		go func() {
			for i := 0; i < n; i++ {
				if err := fs.SendFrame(frame); err != nil {
					sendErr <- err
					return
				}
			}
			sendErr <- nil
		}()
		timeout := time.After(20 * time.Second)
		for got := 0; got < n*batch; {
			select {
			case b := <-ep.Batches():
				got += len(b.Refreshes)
			case <-timeout:
				return fmt.Errorf("tcp driver stalled at %d of %d refreshes", got, n*batch)
			}
		}
		return <-sendErr
	}
	if err := pump(16); err != nil {
		return 0, err
	}
	var perr error
	_, cpu, _ := timed(func() { perr = pump(frames) })
	return cpu / float64(frames*batch), perr
}

func (d *drivers) tcp() (err error) {
	if d.out["transport.tcp_ns_per_refresh"], err = d.tcpCost(driverBatch, 2000); err != nil {
		return err
	}
	d.out["transport.tcp_ns_per_refresh_b1"], err = d.tcpCost(1, 20000)
	return err
}

func (d *drivers) batcher() error {
	const n = 200000
	b := transport.NewBatcher(newSink(), transport.BatcherConfig{MaxBatch: driverBatch, FlushEvery: 5 * time.Millisecond})
	defer b.Close()
	r := sampleBatch(d.ids, 0, 1, 3)[0]
	var serr error
	wall, _, _ := timed(func() {
		for i := 0; i < n && serr == nil; i++ {
			serr = b.SendRefresh(r)
		}
	})
	d.out["transport.batcher_ns_per_refresh"] = wall / n
	return serr
}

func (d *drivers) local() error {
	const n = 4000
	l := transport.NewLocal(serveBuffer)
	defer l.Close()
	conn, err := l.Dial("src-0")
	if err != nil {
		return err
	}
	defer conn.Close()
	rs := sampleBatch(d.ids, 0, driverBatch, 3)
	var serr error
	_, cpu, _ := timed(func() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for got := 0; got < n*driverBatch; {
				got += len((<-l.Batches()).Refreshes)
			}
		}()
		for i := 0; i < n && serr == nil; i++ {
			serr = conn.SendBatch(rs)
		}
		if serr == nil {
			wg.Wait()
		}
	})
	d.out["transport.local_ns_per_refresh"] = cpu / (n * driverBatch)
	return serr
}

// versionedBatches pre-builds count batches cycling over the first span
// objects, each object's version advancing every time it comes round.
func (d *drivers) versionedBatches(count, span int, framed bool) []transport.InboundBatch {
	ins := make([]transport.InboundBatch, count)
	for b := range ins {
		first := b * driverBatch
		rs := sampleBatch(d.ids, first%span, driverBatch, uint64(first/span+1))
		ins[b].RefreshBatch = wire.RefreshBatch{Refreshes: rs, SentUnix: 1}
		if framed {
			ins[b].Frame = codec.NewBatchFrame(rs, 1)
		}
	}
	return ins
}

func waitApplied(c *runtime.Cache, n int) error {
	deadline := time.Now().Add(20 * time.Second)
	for c.Stats().Refreshes < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("cache applied %d of %d refreshes", c.Stats().Refreshes, n)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

func (d *drivers) cache() error {
	const warm, batches = driverObjects / driverBatch, 1536
	feed := newFeed()
	c := runtime.NewCache(runtime.CacheConfig{ID: "leaf-0", Bandwidth: 1e9, Tick: tick}, feed)
	defer c.Close()
	ins := d.versionedBatches(warm+batches, driverObjects, false)
	for _, in := range ins[:warm] {
		feed.batches <- in
	}
	if err := waitApplied(c, warm*driverBatch); err != nil {
		return err
	}
	var aerr error
	_, cpu, allocs := timed(func() {
		for _, in := range ins[warm:] {
			feed.batches <- in
		}
		aerr = waitApplied(c, len(ins)*driverBatch)
	})
	if aerr != nil {
		return aerr
	}
	d.out["cache.apply_cpu_ns_per_refresh"] = cpu / (batches * driverBatch)
	d.out["cache.apply_allocs_per_refresh"] = allocs / (batches * driverBatch)

	const gets = 400000
	misses := 0
	wall, _, _ := timed(func() {
		for i := 0; i < gets; i++ {
			if _, ok := c.Get(d.ids[i%len(d.ids)]); !ok {
				misses++
			}
		}
	})
	d.out["cache.get_ns"] = wall / gets
	if misses > 0 {
		return fmt.Errorf("%d of %d Gets missed", misses, gets)
	}
	return nil
}

// update times Source.Update alone: the tick is an hour, so no flush runs
// beside it, and every object stays queued as it does on paper_star.
func (d *drivers) update() error {
	const n = 300000
	for name, cfg := range map[string]runtime.SourceConfig{
		"source.update_ns":        {},
		"source.update_group_ns":  {Group: runtime.GroupConfig{Enabled: true}},
		"source.update_polled_ns": {Policy: runtime.PolicyCGM1},
	} {
		cfg.ID, cfg.Metric, cfg.Tick, cfg.Bandwidth = "src-0", metric.ValueDeviation, time.Hour, 1000
		src, err := runtime.NewFanoutSource(cfg, []runtime.Destination{{CacheID: "leaf-0", Conn: newSink()}})
		if err != nil {
			return err
		}
		for _, id := range d.ids {
			src.Update(id, 0)
		}
		wall, _, _ := timed(func() {
			for i := 0; i < n; i++ {
				src.Update(d.ids[i%len(d.ids)], float64(1+i/len(d.ids)))
			}
		})
		src.Close()
		d.out[name] = wall / n
	}
	return nil
}

// deliver measures the origin's whole cost per delivered refresh — update,
// schedule, encode, hand to the connection — with thresholds pinned, on the
// per-session path behind a Batcher and on a session group of one. Rounds of
// distinct objects wait for full delivery, so nothing coalesces.
func (d *drivers) deliver() error {
	const round, rounds = 4096, 10
	for name, group := range map[string]bool{
		"source.deliver_cpu_ns_per_refresh": false,
		"group.deliver_cpu_ns_per_refresh":  true,
	} {
		var conn transport.SourceConn = newSink()
		if !group {
			conn = transport.NewBatcher(conn, transport.BatcherConfig{MaxBatch: driverBatch, FlushEvery: 5 * time.Millisecond})
		}
		src, err := runtime.NewFanoutSource(runtime.SourceConfig{
			ID: "src-0", Metric: metric.ValueDeviation, Bandwidth: 1e9, Tick: time.Millisecond,
			Params: pinnedParams,
			Group:  runtime.GroupConfig{Enabled: group, Queue: groupQueue},
		}, []runtime.Destination{{CacheID: "leaf-0", Conn: conn}})
		if err != nil {
			return err
		}
		issue := func(k int) error {
			for i := 0; i < round; i++ {
				src.Update(d.ids[i], float64(k))
			}
			deadline := time.Now().Add(20 * time.Second)
			for src.Stats().Refreshes < (k+1)*round {
				if time.Now().After(deadline) {
					return fmt.Errorf("%s: delivered %d of %d", name, src.Stats().Refreshes, (k+1)*round)
				}
				time.Sleep(200 * time.Microsecond)
			}
			return nil
		}
		err = issue(0)
		_, cpu, _ := timed(func() {
			for k := 1; k <= rounds && err == nil; k++ {
				err = issue(k)
			}
		})
		src.Close()
		if err != nil {
			return err
		}
		d.out[name] = cpu / (round * rounds)
	}
	return nil
}

// forward measures the relay hop: framed batches into a Node with two
// measuring children, classic and splice, each minus an apply-only baseline
// (a plain cache), so what remains is the re-export machinery.
func (d *drivers) forward() error {
	const warm, batches, children = 8, 256, 2
	type cost struct{ cpu, allocs float64 }
	run := func(mode string) (cost, error) {
		feed := newFeed()
		ins := d.versionedBatches(warm+batches, driverBatch, true)
		var cache *runtime.Cache
		var node *runtime.Node
		sinks := make([]*sinkConn, children)
		if mode == "apply" {
			cache = runtime.NewCache(runtime.CacheConfig{ID: "relay", Bandwidth: 1e9, Tick: tick}, feed)
			defer cache.Close()
		} else {
			peers := make([]runtime.Destination, children)
			for i := range peers {
				sinks[i] = newSink()
				peers[i] = runtime.Destination{CacheID: fmt.Sprintf("leaf-%d", i), Conn: sinks[i]}
			}
			var err error
			node, err = runtime.NewNode(runtime.NodeConfig{
				ID:            "relay",
				Intake:        runtime.CacheConfig{Bandwidth: 1e9, Tick: tick},
				PeerBandwidth: 1e9,
				Metric:        metric.ValueDeviation,
				Tick:          time.Millisecond,
				Params:        pinnedParams,
				Group:         runtime.GroupConfig{Enabled: true, Queue: groupQueue},
				SpliceForward: mode == "splice",
			}, feed, peers)
			if err != nil {
				return cost{}, err
			}
			defer node.Close()
		}
		// Lockstep: each batch waits for its delivery to every child, so the
		// classic path's flush tick cannot coalesce the next batch into it.
		feedRange := func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				feed.batches <- ins[i]
				for _, s := range sinks {
					if s == nil {
						continue
					}
					if err := s.waitSends(int64(i+1), 20*time.Second); err != nil {
						return fmt.Errorf("relay %s: %w", mode, err)
					}
				}
			}
			if cache != nil {
				return waitApplied(cache, hi*driverBatch)
			}
			return nil
		}
		if err := feedRange(0, warm); err != nil {
			return cost{}, err
		}
		var ferr error
		_, cpu, allocs := timed(func() { ferr = feedRange(warm, warm+batches) })
		return cost{cpu / (batches * driverBatch), allocs / (batches * driverBatch)}, ferr
	}
	apply, err := run("apply")
	if err != nil {
		return err
	}
	classic, err := run("classic")
	if err != nil {
		return err
	}
	splice, err := run("splice")
	if err != nil {
		return err
	}
	d.out["node.forward_classic_cpu_ns_per_refresh"] = math.Max(0, classic.cpu-apply.cpu)
	d.out["node.forward_splice_cpu_ns_per_refresh"] = math.Max(0, splice.cpu-apply.cpu)
	d.out["node.forward_splice_allocs_per_refresh"] = math.Max(0, splice.allocs-apply.allocs)
	return nil
}

// core times the pure protocol pieces the scheduler is made of.
func (d *drivers) core() error {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(1))
	keys, pris := make([]int, 1<<16), make([]float64, 1<<16)
	for i := range keys {
		keys[i], pris[i] = rng.Intn(driverObjects), rng.Float64()
	}
	q := priority.NewQueue(driverObjects)
	for i := 0; i < driverObjects; i++ {
		q.Upsert(i, rng.Float64())
	}
	wall, _, _ := timed(func() {
		for i := 0; i < n; i++ {
			q.Upsert(keys[i&(1<<16-1)], pris[(i*7)&(1<<16-1)])
		}
	})
	d.out["priority.queue_ns_per_op"] = wall / n

	trackers := make([]metric.Tracker, driverObjects)
	sink := 0.0
	wall, _, _ = timed(func() {
		for i := 0; i < n; i++ {
			tr := &trackers[i%driverObjects]
			now := float64(i) * 1e-5
			tr.Update(now, float64(i&7))
			sink += tr.Priority(now)
		}
	})
	d.out["metric.tracker_ns_per_update"] = wall / n

	const solves = 20
	lambdas := make([]float64, 2048)
	for i := range lambdas {
		lambdas[i] = 4000 * math.Pow(float64(i+1), -1.2)
	}
	wall, _, _ = timed(func() {
		for i := 0; i < solves; i++ {
			sink += cgm.OptimalAllocation(lambdas, 1000)[0]
		}
	})
	d.out["cgm.alloc_us_per_solve"] = wall / solves / 1e3
	if math.IsNaN(sink) {
		return fmt.Errorf("core drivers produced NaN")
	}
	return nil
}

// engine runs the simulator half on one fixed configuration, twice: the
// divergence is a deterministic function of the seed and must repeat exactly.
func (d *drivers) engine() error {
	const sources, objects = 40, 50
	cfg := engine.Config{
		Seed:             7,
		Sources:          sources,
		ObjectsPerSource: objects,
		Metric:           metric.ValueDeviation,
		Duration:         300,
		Warmup:           50,
		CacheBW:          bandwidth.Const(sources * objects / 4),
		SourceBW:         bandwidth.Const(objects),
		Rates:            simload.UniformRates(rand.New(rand.NewSource(7)), sources*objects, 0.05, 1),
		Policy:           engine.Cooperative,
	}
	var first, second engine.Result
	var err error
	wall, _, _ := timed(func() {
		if first, err = engine.Run(cfg); err == nil {
			second, err = engine.Run(cfg)
		}
	})
	if err != nil {
		return err
	}
	d.out["engine.updates_per_s"] = float64(first.Updates+second.Updates) / (wall / 1e9)
	d.out["engine.avg_divergence"] = first.AvgDivergence
	if first.AvgDivergence != second.AvgDivergence {
		return fmt.Errorf("engine.avg_divergence did not repeat: %v then %v", first.AvgDivergence, second.AvgDivergence)
	}
	return nil
}
