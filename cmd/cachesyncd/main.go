// Command cachesyncd runs a live cache node over TCP. Sources connect with
// cmd/sourceagent (or any client speaking the internal/wire protocol),
// stream refresh messages, and receive positive feedback when the cache has
// spare processing bandwidth.
//
// The cache is one dispatcher writing one store under one lock. Sources
// frame refreshes in batches, which the dispatcher applies one at a time: a
// busy dispatcher stops reading the connections, the back-pressure point.
//
// The cache stamps its identity (-id, default the listen address) on the
// feedback it sends, so fan-out sources (sourceagent -caches) can attribute
// feedback to the right sync session and report which cache answered.
//
// # Sync policy (-mode)
//
// By default the cache runs the paper's source-cooperative PUSH policy:
// sources decide what to send. With -mode poll|ideal|cgm1|cgm2 the cache
// instead runs the Cho & Garcia-Molina cache-driven baseline (§6.3): it
// discovers the object universe from connected sources, assigns each object
// a poll frequency from the freshness-optimal allocation, and polls — the
// sources (sourceagent -mode with the same value) only answer. The same
// -bandwidth is the message budget either way (a practical-mode poll costs
// two messages per refresh; ideal costs one), so push-vs-poll comparisons
// at equal budget work on live daemons. -resolve-every sets the
// re-estimation epoch; -poll-rate supplies ideal mode's assumed per-object
// update rate (ideal without it falls back to CGM1's estimates).
//
// # Relay mode (cache→cache hierarchy)
//
// With -children the daemon becomes a middle tier: it still serves -addr as
// a push cache (-mode push) toward its upstream, but every refresh it applies is re-exported
// as an update toward the listed child caches, with its own send budget
// (-child-bandwidth) divided across them by share weight — edge tiers that
// re-export refreshes. Re-exported refreshes keep the originating source id
// and carry an incremented hop count, so loops are dropped and -max-hops
// bounds re-export depth. A dead child connection is redialed with backoff;
// the child is fully re-synchronized when it returns.
//
// The allocation is live: with -rebalance the child shares are re-derived
// periodically from observed feedback and divergence, and with
// -total-bandwidth the relay's two faces (intake processing and child
// sends) share one budget that shifts between them from observed backlog.
// The -http endpoint adds /children/add and /children/remove in relay
// mode, so children join and leave a running tier:
//
//	POST /children/add?addr=host:port[&weight=2]
//	POST /children/remove?addr=host:port
//
// # Mesh mode (cooperative peer links)
//
// -peers lists LATERAL neighbors instead of (or alongside) downstream
// children: the node pushes the refreshes it applies to each peer exactly
// like a relay re-exports to a child, stamping full provenance so the peers'
// own re-exports keep the loop guards intact. Children and peers
// are the same symmetric peer face (internal/runtime Node); the two flags
// only differ in vocabulary, so rings, meshes and random graphs are just
// -peers wiring: each node lists its neighbors, split horizon and the
// path-vector Via check stop updates from circulating, and -max-hops bounds
// the lateral depth. /peers/add and /peers/remove manage links at runtime
// the same way /children/* does. Peer mode advertises the peer capability
// (wire.CapPeer) on outbound Hellos so neighbors attach known-version
// hints to their polls and skip redundant answers.
//
// Examples:
//
//	cachesyncd -addr :7400 -bandwidth 100
//	cachesyncd -addr :7400 -children edge-a:7500,edge-b:7500=2 -child-bandwidth 60
//	cachesyncd -addr :7400 -children edge-a:7500 -total-bandwidth 120 -rebalance 2s -http :7401
//	cachesyncd -addr :7400 -peers node-b:7400,node-c:7400
//	cachesyncd -addr :7400 -mode cgm1 -bandwidth 100 -resolve-every 20s
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"bestsync/internal/adminhttp"
	"bestsync/internal/destspec"
	"bestsync/internal/metric"
	"bestsync/internal/runtime"
	"bestsync/internal/transport"
	"bestsync/internal/wire"
)

func main() {
	addr := flag.String("addr", ":7400", "listen address")
	id := flag.String("id", "", "cache identifier stamped on feedback (default: the listen address)")
	httpAddr := flag.String("http", "", "optional HTTP status address (e.g. :7401)")
	bw := flag.Float64("bandwidth", 100, "refresh-processing budget (messages/second)")
	mode := flag.String("mode", "push", "sync policy: push (source-cooperative) or poll|ideal|cgm1|cgm2 (cache-driven CGM baseline)")
	resolveEvery := flag.Duration("resolve-every", 30*time.Second, "poll modes: re-estimation/re-allocation epoch")
	pollRate := flag.Float64("poll-rate", 0, "ideal mode: assumed per-object update rate (updates/s); 0 = fall back to CGM1 estimates")
	children := flag.String("children", "", "comma-separated downstream cache addresses host:port[=weight] (relay mode: re-export applied refreshes)")
	peers := flag.String("peers", "", "comma-separated lateral peer addresses host:port[=weight] (mesh mode: same peer face as -children, ring/mesh vocabulary)")
	childBW := flag.Float64("child-bandwidth", 50, "relay mode: send budget toward children (messages/second), divided by share weight")
	totalBW := flag.Float64("total-bandwidth", 0, "relay mode: shared budget across both faces (intake + child sends); overrides -bandwidth/-child-bandwidth defaults to half each and lets -rebalance shift the split")
	rebalance := flag.Duration("rebalance", 0, "relay mode: periodic share re-allocation interval (child shares from observed feedback/divergence; with -total-bandwidth also the up/down face split; 0 = static)")
	maxHops := flag.Int("max-hops", 8, "relay mode: drop re-exports past this many relay tiers")
	group := flag.Bool("group", false, "relay mode: session-group fan-out toward default-weight children (one scheduling pass, one encode per batch)")
	splice := flag.Bool("splice", true, "relay mode with -group: zero-copy re-export — splice-patch retained inbound binary frames onto the child face instead of decoding and re-encoding (falls back automatically where ineligible)")
	pprofFlag := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the -http mux")
	statsEvery := flag.Duration("stats", 5*time.Second, "stats print interval (0 = silent)")
	snapshotPath := flag.String("snapshot", "", "optional snapshot file (loaded at boot, saved periodically and on shutdown)")
	snapshotEvery := flag.Duration("snapshot-every", time.Minute, "periodic snapshot interval")
	flag.Parse()

	policy, err := runtime.ParsePolicy(*mode)
	if err != nil {
		log.Fatalf("cachesyncd: -mode: %v", err)
	}
	if *children != "" || *peers != "" {
		// A node with a peer face understands peer-capable frames (poll
		// provenance, known-version hints); advertising CapPeer lets the
		// node on the other end attach Known hints to the polls it sends
		// back over this connection.
		transport.SetDialCapabilities(wire.CapPeer)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("cachesyncd: %v", err)
	}
	if *id == "" {
		*id = ln.Addr().String()
	}
	ep := transport.Serve(ln, 256)

	// In relay mode the cache is owned by a Node that re-exports applied
	// refreshes toward the children; otherwise it is a plain leaf cache.
	var (
		cache *runtime.Cache
		node  *runtime.Node
	)
	if *children != "" || *peers != "" {
		if policy.CacheDriven() {
			log.Fatalf("cachesyncd: relay/mesh mode requires -mode push (got %v)", policy)
		}
		var addrs []string
		var weights []float64
		if *children != "" {
			a, w, err := destspec.Parse(*children)
			if err != nil {
				log.Fatalf("cachesyncd: -children: %v", err)
			}
			addrs, weights = append(addrs, a...), append(weights, w...)
		}
		if *peers != "" {
			// Peers land on the same symmetric face as children; the flags
			// differ only in topology vocabulary.
			a, w, err := destspec.Parse(*peers)
			if err != nil {
				log.Fatalf("cachesyncd: -peers: %v", err)
			}
			addrs, weights = append(addrs, a...), append(weights, w...)
		}
		// Child connections are redialed with backoff so a restarted child
		// rejoins the tier; a child that is down right now does not block
		// the boot. The admin endpoint adds children identically.
		dests, deferred := runtime.DialDestinations(addrs, weights, *id)
		for _, addr := range deferred {
			log.Printf("cachesyncd: peer %s unreachable, will keep redialing", addr)
		}
		// With a shared face budget, face budgets not explicitly set on
		// the command line default to half the total each (the node's
		// own defaulting) instead of the flags' standalone defaults.
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		cacheBW, childBand := *bw, *childBW
		if *totalBW > 0 {
			if !explicit["bandwidth"] {
				cacheBW = 0
			}
			if !explicit["child-bandwidth"] {
				childBand = 0
			}
		}
		node, err = runtime.NewNode(runtime.NodeConfig{
			ID:             *id,
			Intake:         runtime.CacheConfig{Bandwidth: cacheBW},
			PeerBandwidth:  childBand,
			TotalBandwidth: *totalBW,
			Rebalance:      *rebalance,
			Metric:         metric.ValueDeviation,
			MaxHops:        *maxHops,
			Group:          runtime.GroupConfig{Enabled: *group},
			SpliceForward:  *group && *splice,
		}, ep, dests)
		if err != nil {
			log.Fatalf("cachesyncd: %v", err)
		}
		cache = node.Cache()
		nst := node.Stats()
		face := "children"
		if *peers != "" {
			face = "peer links"
		}
		log.Printf("cachesyncd %s: node on %s, bandwidth %.1f msgs/s intake / %.1f msgs/s out to %d %s",
			node.ID(), ln.Addr(), nst.IntakeBandwidth, nst.PeerBandwidth, len(dests), face)
	} else {
		pollCfg := runtime.PollConfig{ReSolveEvery: *resolveEvery}
		if *pollRate > 0 {
			rate := *pollRate
			pollCfg.TrueRate = func(string) float64 { return rate }
		}
		cache = runtime.NewCache(runtime.CacheConfig{
			ID:        *id,
			Bandwidth: *bw,
			Policy:    policy,
			Poll:      pollCfg,
		}, ep)
		log.Printf("cachesyncd %s: listening on %s, policy %v, bandwidth %.1f msgs/s",
			cache.ID(), ln.Addr(), policy, *bw)
	}
	if *snapshotPath != "" {
		if err := cache.LoadSnapshotFile(*snapshotPath); err != nil {
			log.Fatalf("cachesyncd: loading snapshot: %v", err)
		}
		log.Printf("cachesyncd: restored %d objects from %s", cache.Len(), *snapshotPath)
		if node != nil && cache.Len() > 0 {
			// Snapshot loading bypasses the apply hook; seed the child
			// sessions so restored objects reach the tier below too.
			node.ReexportStore()
			log.Printf("cachesyncd: re-exporting %d restored objects to children", cache.Len())
		}
		go func() {
			for range time.Tick(*snapshotEvery) {
				if err := cache.SaveSnapshotFile(*snapshotPath); err != nil {
					log.Printf("cachesyncd: snapshot: %v", err)
				}
			}
		}()
	}
	if *pprofFlag && *httpAddr == "" {
		log.Printf("cachesyncd: -pprof has no effect without -http")
	}
	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/status", cache.StatusHandler(100))
		if node != nil {
			// Tree and mesh vocabulary manage the same symmetric face.
			mux.HandleFunc("/children/add", adminhttp.AddHandler(node.AddPeer, *id))
			mux.HandleFunc("/children/remove", adminhttp.RemoveHandler(node.RemovePeer))
			mux.HandleFunc("/peers/add", adminhttp.AddHandler(node.AddPeer, *id))
			mux.HandleFunc("/peers/remove", adminhttp.RemoveHandler(node.RemovePeer))
		}
		if *pprofFlag {
			adminhttp.RegisterPprof(mux)
		}
		go func() {
			log.Printf("cachesyncd: status at http://%s/status", *httpAddr)
			if err := http.ListenAndServe(*httpAddr, mux); err != nil {
				log.Printf("cachesyncd: http: %v", err)
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	var ticker *time.Ticker
	if *statsEvery > 0 {
		ticker = time.NewTicker(*statsEvery)
		defer ticker.Stop()
	} else {
		ticker = time.NewTicker(time.Hour)
		ticker.Stop()
	}
	for {
		select {
		case <-stop:
			log.Print("cachesyncd: shutting down")
			if *snapshotPath != "" {
				if err := cache.SaveSnapshotFile(*snapshotPath); err != nil {
					log.Printf("cachesyncd: final snapshot: %v", err)
				}
			}
			if node != nil {
				node.Close()
			} else {
				cache.Close()
			}
			ep.Close()
			return
		case <-ticker.C:
			st := cache.Stats()
			if policy.CacheDriven() {
				fmt.Printf("objects=%d sources=%d refreshes=%d polls=%d replies=%d resolves=%d stale=%d rate=%.1f/s\n",
					cache.Len(), st.Sources, st.Refreshes, st.Polls, st.PollReplies, st.Resolves, st.Stale, cache.ApplyRate())
				continue
			}
			fmt.Printf("objects=%d sources=%d refreshes=%d feedback=%d stale=%d rate=%.1f/s\n",
				cache.Len(), st.Sources, st.Refreshes, st.Feedbacks, st.Stale, cache.ApplyRate())
			if node != nil {
				nst := node.Stats()
				fmt.Printf("  node forwarded=%d looped=%d hop_limited=%d peer_served=%d out_refreshes=%d up=%.3g/s down=%.3g/s rebalances=%d\n",
					nst.Forwarded, nst.Looped, nst.HopLimited,
					nst.Intake.PeerServed, nst.Peers.Refreshes,
					nst.IntakeBandwidth, nst.PeerBandwidth, nst.FaceRebalances)
				if g := nst.Peers.Group; g != nil {
					fmt.Printf("  group members=%d batches=%d delivered=%d fallbacks=%d lags=%d caught_up=%d overruns=%d share=%.3g/s\n",
						g.Members, g.Batches, g.Delivered, g.Fallbacks, g.Detaches, g.Rejoins, g.QueueOverruns, g.MemberShare)
				}
				if nst.SplicedBatches > 0 || nst.SpliceFallbacks > 0 {
					fmt.Printf("  splice batches=%d refreshes=%d fallbacks=%d\n",
						nst.SplicedBatches, nst.SplicedRefreshes, nst.SpliceFallbacks)
				}
				for _, sess := range nst.Peers.Sessions {
					ended := ""
					if sess.Ended {
						ended = " ENDED"
					}
					fmt.Printf("  child %-24s share=%.3g/s weight=%.3g refreshes=%d feedback=%d reconnects=%d threshold=%.4g%s\n",
						sess.CacheID, sess.Share, sess.Weight, sess.Refreshes, sess.Feedbacks, sess.Reconnects, sess.Threshold, ended)
				}
			}
		}
	}
}
