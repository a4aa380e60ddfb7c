package main

import (
	"fmt"
	"time"

	"bestsync/internal/metric"
	"bestsync/internal/runtime"
	"bestsync/internal/transport"
)

// topologyNodeResult is one node's slice of a topology measurement.
type topologyNodeResult struct {
	NodeID         string  `json:"node_id"`
	Applied        int     `json:"applied"`
	PeerServed     int     `json:"peer_served"`
	MeanDivergence float64 `json:"mean_divergence"`
}

// topologyResult is one measured topology shape at the shared budget:
// the direct tree (origin spends the whole budget B on per-node sessions),
// the ring (origin holds B/2 toward node 0; every node's peer face gets an
// equal slice of the remaining B/2 and pushes to its successor) or the full
// mesh (same split, peer faces fan to every other node).
type topologyResult struct {
	Scenario        string               `json:"scenario"` // tree | ring | mesh
	Nodes           int                  `json:"nodes"`
	Objects         int                  `json:"objects"`
	DurationS       float64              `json:"duration_s"`
	TotalBandwidth  float64              `json:"total_bandwidth_msgs_per_s"`
	OriginBandwidth float64              `json:"origin_bandwidth_msgs_per_s"`
	Updates         int                  `json:"updates"`
	OriginEgress    int                  `json:"origin_egress"` // refreshes sent by the origin source
	PeerServed      int                  `json:"peer_served"`   // applies that reached a node laterally
	Forwarded       int                  `json:"forwarded"`     // refreshes re-exported between nodes
	Looped          int                  `json:"looped"`        // cycled copies rejected at intake
	HopLimited      int                  `json:"hop_limited"`   // re-exports dropped at the hop ceiling
	TotalApplied    int                  `json:"total_applied"`
	MeanDivergence  float64              `json:"mean_divergence"`
	MaxDivergence   float64              `json:"max_divergence"`
	PerNode         []topologyNodeResult `json:"per_node"`
}

// runTopologyMode compares the tree, ring and mesh topologies over the same
// N cache nodes at the same total send budget B: the tree spends all of B on
// direct origin→node sessions (every refresh is origin egress), while ring
// and mesh give the origin only B/2 toward node 0 and let the nodes' peer
// faces — each holding (B/2)/N — push applied values laterally, so most
// nodes are served by a neighbor instead of the origin. Results go to
// stdout and BENCH_topology.json. (The deep tree with a relay tier is the
// repo benchmark's tree_firehose workload; here the tree is the depth-1
// baseline the cooperative shapes are judged against.)
func runTopologyMode(nodes, objects int, rate, bandwidth float64, duration time.Duration) {
	fmt.Printf("# topology shapes: tree vs ring vs mesh over %d nodes, %d objects, %.0f updates/s, %.0f msgs/s total budget, %s per shape\n\n",
		nodes, objects, rate, bandwidth, duration)
	fmt.Printf("%-8s %6s %8s %13s %12s %8s %12s %14s\n",
		"scenario", "nodes", "updates", "origin egress", "peer served", "looped", "hop-limited", "mean diverg.")
	var results []topologyResult
	for _, shape := range []string{"tree", "ring", "mesh"} {
		r := measureTopology(shape, nodes, objects, rate, bandwidth, duration)
		results = append(results, r)
		fmt.Printf("%-8s %6d %8d %13d %12d %8d %12d %14.4f\n",
			r.Scenario, r.Nodes, r.Updates, r.OriginEgress, r.PeerServed, r.Looped, r.HopLimited, r.MeanDivergence)
	}
	fmt.Println()
	for _, r := range results {
		fmt.Printf("# %s per-node breakdown:\n", r.Scenario)
		for _, nodeRes := range r.PerNode {
			fmt.Printf("  %-8s applied=%6d peer_served=%6d divergence=%.4f\n",
				nodeRes.NodeID, nodeRes.Applied, nodeRes.PeerServed, nodeRes.MeanDivergence)
		}
	}
	if err := writeBenchJSON("BENCH_topology.json", results); err != nil {
		fmt.Printf("syncbench: writing BENCH_topology.json: %v\n", err)
		return
	}
	fmt.Println("\nwrote BENCH_topology.json")
}

// topologyPeers returns the node indices node i pushes to in the shape: its
// successor on the ring, everyone else in the mesh, nobody in the tree.
func topologyPeers(shape string, i, nodes int) []int {
	switch shape {
	case "ring":
		return []int{(i + 1) % nodes}
	case "mesh":
		out := make([]int, 0, nodes-1)
		for j := 0; j < nodes; j++ {
			if j != i {
				out = append(out, j)
			}
		}
		return out
	default:
		return nil
	}
}

// measureTopology runs one shape over the in-process transport and audits
// final divergence at every node against the canonical values.
func measureTopology(shape string, nodes, objects int, rate, bandwidth float64, duration time.Duration) topologyResult {
	res := topologyResult{
		Scenario:       shape,
		Nodes:          nodes,
		Objects:        objects,
		TotalBandwidth: bandwidth,
	}
	nodeID := func(i int) string { return fmt.Sprintf("n%d", i) }

	// Every node gets its own intake endpoint; lateral peers and the origin
	// both deliver through it. Processing budget mirrors the total network
	// budget so the bottleneck under test is the send path, not the apply
	// path.
	eps := make([]*transport.Local, nodes)
	for i := range eps {
		eps[i] = transport.NewLocal(64)
	}

	var (
		src    *runtime.Source
		meshed []*runtime.Node
		caches []*runtime.Cache
		err    error
	)
	if shape == "tree" {
		// Origin --B--> every node directly: all freshness is origin egress.
		res.OriginBandwidth = bandwidth
		caches = make([]*runtime.Cache, nodes)
		dests := make([]runtime.Destination, nodes)
		for i := range caches {
			caches[i] = runtime.NewCache(runtime.CacheConfig{
				ID: nodeID(i), Bandwidth: bandwidth, Tick: 10 * time.Millisecond,
			}, eps[i])
			conn, derr := eps[i].Dial("origin")
			if derr != nil {
				panic(derr)
			}
			dests[i] = runtime.Destination{CacheID: nodeID(i), Conn: conn}
		}
		src, err = runtime.NewFanoutSource(runtime.SourceConfig{
			ID: "origin", Metric: metric.ValueDeviation,
			Bandwidth: bandwidth, Tick: 10 * time.Millisecond,
		}, dests)
		if err != nil {
			panic(err)
		}
	} else {
		// Origin --B/2--> node 0; nodes share the other B/2 on their peer
		// faces and serve each other laterally. MaxHops is lifted to the
		// node count so the far side of the ring stays reachable; the copy
		// that closes the cycle is rejected at intake (Looped) — that
		// rejection, not luck, is what bounds recirculation.
		res.OriginBandwidth = bandwidth / 2
		perNodePeerBW := (bandwidth / 2) / float64(nodes)
		meshed = make([]*runtime.Node, nodes)
		for i := 0; i < nodes; i++ {
			var peers []runtime.Destination
			for _, j := range topologyPeers(shape, i, nodes) {
				conn, derr := eps[j].Dial(nodeID(i))
				if derr != nil {
					panic(derr)
				}
				peers = append(peers, runtime.Destination{CacheID: nodeID(j), Conn: conn})
			}
			meshed[i], err = runtime.NewNode(runtime.NodeConfig{
				ID:            nodeID(i),
				Intake:        runtime.CacheConfig{Bandwidth: bandwidth, Tick: 10 * time.Millisecond},
				PeerBandwidth: perNodePeerBW,
				Metric:        metric.ValueDeviation,
				Tick:          10 * time.Millisecond,
				MaxHops:       nodes,
			}, eps[i], peers)
			if err != nil {
				panic(err)
			}
		}
		conn, derr := eps[0].Dial("origin")
		if derr != nil {
			panic(derr)
		}
		src, err = runtime.NewFanoutSource(runtime.SourceConfig{
			ID: "origin", Metric: metric.ValueDeviation,
			Bandwidth: bandwidth / 2, Tick: 10 * time.Millisecond,
		}, []runtime.Destination{{CacheID: nodeID(0), Conn: conn}})
		if err != nil {
			panic(err)
		}
	}

	values, elapsed := pacedRandomWalk(src, "origin", objects, rate, duration)
	res.DurationS = elapsed

	st := src.Stats()
	res.Updates = st.Updates
	res.OriginEgress = st.Refreshes
	if shape == "tree" {
		for _, c := range caches {
			cst := c.Stats()
			d := meanAbsDivergence(c, "origin", values)
			res.TotalApplied += cst.Refreshes
			res.PeerServed += cst.PeerServed
			res.MeanDivergence += d
			res.MaxDivergence = max(res.MaxDivergence, d)
			res.PerNode = append(res.PerNode, topologyNodeResult{
				NodeID: c.ID(), Applied: cst.Refreshes,
				PeerServed: cst.PeerServed, MeanDivergence: d,
			})
		}
	} else {
		for _, n := range meshed {
			nst := n.Stats()
			d := meanAbsDivergence(n.Cache(), "origin", values)
			res.TotalApplied += nst.Intake.Refreshes
			res.PeerServed += nst.Intake.PeerServed
			res.Forwarded += nst.Forwarded
			res.Looped += nst.Looped
			res.HopLimited += nst.HopLimited
			res.MeanDivergence += d
			res.MaxDivergence = max(res.MaxDivergence, d)
			res.PerNode = append(res.PerNode, topologyNodeResult{
				NodeID: n.ID(), Applied: nst.Intake.Refreshes,
				PeerServed: nst.Intake.PeerServed, MeanDivergence: d,
			})
		}
	}
	res.MeanDivergence /= float64(nodes)

	src.Close() // stop the origin flow before tearing down the nodes
	for _, n := range meshed {
		n.Close()
	}
	for _, c := range caches {
		c.Close()
	}
	for _, ep := range eps {
		ep.Close()
	}
	return res
}
