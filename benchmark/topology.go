package main

import (
	"fmt"
	"net"
	"time"

	"bestsync/internal/metric"
	"bestsync/internal/runtime"
	"bestsync/internal/transport"
)

// topology is one built workload: real Sources, an optional relay Node and
// leaf Caches joined by loopback TCP with the binary codec.
type topology struct {
	origins []*runtime.Source
	relay   *runtime.Node
	leaves  []*runtime.Cache
	// originBudget and leafBudget are the configured message budgets (msg/s)
	// the conservation check and the budget_use counters compare against.
	originBudget float64
	leafBudget   float64
	built        int64 // harness clock when build returned: the origin, made last, started its flush ticker just before
	closers      []func()
}

// close tears the topology down source-first, so nothing is re-exported into
// a closed peer, and waits for every goroutine the runtime started.
func (t *topology) close() {
	for _, s := range t.origins {
		s.Close()
	}
	if t.relay != nil {
		t.relay.Close()
	}
	for _, c := range t.leaves {
		c.Close()
	}
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
}

// serve opens a loopback listener as node's intake endpoint. In a traced run
// the endpoint is wrapped so batch arrivals are stamped (trace.go).
func (h *harness) serve(t *topology, node int) (transport.CacheEndpoint, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	ep := transport.Serve(ln, serveBuffer)
	if h.traced {
		ep = h.traceEndpoint(ep, node)
	}
	t.closers = append(t.closers, func() { ep.Close() })
	return ep, ln.Addr().String(), nil
}

// leaf starts leaf cache i with the observer hook installed and returns the
// address sources dial.
func (h *harness) leaf(t *topology, i int, cfg runtime.CacheConfig) (string, error) {
	ep, addr, err := h.serve(t, i)
	if err != nil {
		return "", err
	}
	cfg.ID = fmt.Sprintf("leaf-%d", i)
	cfg.Tick = tick
	cfg.OnApply = h.obs[i].onApply
	t.leaves = append(t.leaves, runtime.NewCache(cfg, ep))
	t.leafBudget = cfg.Bandwidth
	return addr, nil
}

func dial(addr, id string) (transport.SourceConn, error) {
	return transport.DialCodec(addr, id, transport.CodecBinary)
}

// buildPaperStar: two origins, one budget-limited cache, default α/ω. Each
// origin delivers through a session group of one (see README, "known seed
// hazards", for why not a plain session).
func buildPaperStar(h *harness) (*topology, error) {
	t := &topology{originBudget: 1000}
	addr, err := h.leaf(t, 0, runtime.CacheConfig{Bandwidth: 1000})
	if err != nil {
		return t, err
	}
	for i := 0; i < h.wl.origins; i++ {
		id := fmt.Sprintf("src-%d", i)
		conn, err := dial(addr, id)
		if err != nil {
			return t, err
		}
		src, err := runtime.NewFanoutSource(runtime.SourceConfig{
			ID: id, Metric: metric.ValueDeviation, Bandwidth: t.originBudget, Tick: tick,
			Group: runtime.GroupConfig{Enabled: true, Queue: groupQueue},
		}, []runtime.Destination{{CacheID: "leaf-0", Conn: conn}})
		if err != nil {
			conn.Close()
			return t, err
		}
		t.origins = append(t.origins, src)
	}
	return t, nil
}

// buildTreeFirehose: origin → relay Node (group delivery, splice forwarding)
// → two leaves, thresholds pinned, budgets out of the way.
func buildTreeFirehose(h *harness) (*topology, error) {
	t := &topology{originBudget: 1e9}
	peers := make([]runtime.Destination, h.wl.leaves)
	for i := range peers {
		addr, err := h.leaf(t, i, runtime.CacheConfig{Bandwidth: 1e9})
		if err != nil {
			return t, err
		}
		conn, err := dial(addr, "relay")
		if err != nil {
			return t, err
		}
		peers[i] = runtime.Destination{CacheID: fmt.Sprintf("leaf-%d", i), Conn: conn}
	}
	up, upAddr, err := h.serve(t, h.wl.leaves)
	if err != nil {
		return t, err
	}
	t.relay, err = runtime.NewNode(runtime.NodeConfig{
		ID:            "relay",
		Intake:        runtime.CacheConfig{Bandwidth: 1e9, Tick: tick},
		PeerBandwidth: 1e9,
		Metric:        metric.ValueDeviation,
		Tick:          tick,
		Params:        pinnedParams,
		Group:         runtime.GroupConfig{Enabled: true, Queue: groupQueue},
		SpliceForward: true,
	}, up, peers)
	if err != nil {
		return t, err
	}
	conn, err := dial(upAddr, "src-0")
	if err != nil {
		return t, err
	}
	src, err := runtime.NewFanoutSource(runtime.SourceConfig{
		ID: "src-0", Metric: metric.ValueDeviation, Bandwidth: t.originBudget, Tick: tick,
		Params: pinnedParams,
		Group:  runtime.GroupConfig{Enabled: true, Queue: groupQueue},
	}, []runtime.Destination{{CacheID: "relay", Conn: conn}})
	if err != nil {
		conn.Close()
		return t, err
	}
	t.origins = append(t.origins, src)
	return t, nil
}

// buildFanoutClassic: origin → four leaves directly, one session per leaf
// behind a Batcher — the daemons' default delivery path.
func buildFanoutClassic(h *harness) (*topology, error) {
	t := &topology{originBudget: 1e9}
	conns := make([]transport.SourceConn, h.wl.leaves)
	for i := range conns {
		addr, err := h.leaf(t, i, runtime.CacheConfig{Bandwidth: 1e9})
		if err != nil {
			return t, err
		}
		if conns[i], err = dial(addr, "src-0"); err != nil {
			return t, err
		}
	}
	// The Batchers' 5 ms flush tickers and the sessions' 10 ms tickers start
	// here, back to back and after every dial, so their relative phase — which
	// decides how long a partial batch waits — is the same in every run
	// instead of whatever the dials took.
	dests := make([]runtime.Destination, len(conns))
	for i, conn := range conns {
		dests[i] = runtime.Destination{
			CacheID: fmt.Sprintf("leaf-%d", i),
			Conn:    transport.NewBatcher(conn, transport.BatcherConfig{MaxBatch: 64, FlushEvery: 5 * time.Millisecond}),
		}
	}
	src, err := runtime.NewFanoutSource(runtime.SourceConfig{
		ID: "src-0", Metric: metric.ValueDeviation, Bandwidth: t.originBudget, Tick: tick,
		Params: pinnedParams,
	}, dests)
	if err != nil {
		for _, d := range dests {
			d.Conn.Close()
		}
		return t, err
	}
	t.origins = append(t.origins, src)
	return t, nil
}

// buildPollZipf: one origin answering a polling cache under PolicyCGM1 — the
// cache estimates every object's update rate from its own polls
// (last-modified estimator) and re-solves cgm.OptimalAllocation from those
// estimates every 500 ms, so the estimator → allocation loop is on the
// critical path of every latency and divergence number of this workload.
func buildPollZipf(h *harness) (*topology, error) {
	t := &topology{originBudget: 20000}
	addr, err := h.leaf(t, 0, runtime.CacheConfig{
		Bandwidth: 2000,
		Policy:    runtime.PolicyCGM1,
		Poll:      runtime.PollConfig{ReSolveEvery: 500 * time.Millisecond, Seed: 1},
	})
	if err != nil {
		return t, err
	}
	conn, err := dial(addr, "src-0")
	if err != nil {
		return t, err
	}
	t.origins = append(t.origins, runtime.NewSource(runtime.SourceConfig{
		ID: "src-0", Metric: metric.ValueDeviation, Bandwidth: t.originBudget, Tick: tick,
		Policy: runtime.PolicyCGM1,
	}, conn))
	return t, nil
}
