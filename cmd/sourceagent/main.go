// Command sourceagent runs a live source node over TCP: it generates a
// random-walk workload over a set of local objects and cooperates with one
// or more cachesyncd caches to keep the most important changes synchronized
// under the configured bandwidth.
//
// Refreshes are cut into wire.RefreshBatch frames of up to 64 by the
// source's scheduler, encoded once and written to the TCP stream as they are
// cut: every tick (100 ms), or, as soon as a frame's worth of refreshes is
// queued and paid for, everything sendable at once. Frames queued back to
// back for one cache go out in one write.
//
// # Fan-out
//
// With -caches the agent synchronizes several caches at once, each an
// independent group (threshold, priority queue, feedback loop) — unless
// -group puts the default-weight ones in one shared group — dividing
// -bandwidth across them by the Section 7 share allocation. Each destination
// is host:port with an optional =weight suffix; omitted weights mean equal
// shares. A batch never spans caches.
//
// The allocation is live: with -rebalance the shares are re-derived
// periodically from observed per-cache feedback and outstanding divergence
// (option-3 contribution scores), and the -http admin endpoint
// adds/removes caches on the running agent:
//
//	POST /caches/add?addr=host:port[&weight=2]   start a session (redialed)
//	POST /caches/remove?addr=host:port           stop it, re-divide the budget
//	GET  /status                                 source stats as JSON
//
// # Sync policy (-mode)
//
// By default the agent runs the paper's source-cooperative PUSH policy.
// With -mode poll|ideal|cgm1|cgm2 it instead ANSWERS cache-driven polls
// from its local store (pair with a cachesyncd running the same -mode): no
// thresholds, no pushes — the cache decides what to ask and when, and the
// agent's replies are paced by the same per-destination share of -bandwidth.
//
// Examples:
//
//	sourceagent -addr localhost:7400 -id sensor-7 -objects 50 -rate 2 -bandwidth 10
//	sourceagent -caches cache-a:7400,cache-b:7400=2 -id sensor-7 -bandwidth 30 -rebalance 2s -http :7411
//	sourceagent -addr localhost:7400 -mode cgm1 -objects 50 -rate 2 -bandwidth 40
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"bestsync/internal/adminhttp"
	"bestsync/internal/destspec"
	"bestsync/internal/metric"
	"bestsync/internal/runtime"
	"bestsync/internal/transport"
	"bestsync/internal/wire"
)

func main() {
	addr := flag.String("addr", "localhost:7400", "cache daemon address (single-cache mode)")
	caches := flag.String("caches", "", "comma-separated cache addresses host:port[=weight] (fan-out mode; overrides -addr)")
	id := flag.String("id", "source-1", "source identifier")
	objects := flag.Int("objects", 20, "number of local objects")
	rate := flag.Float64("rate", 1, "total updates per second across all objects")
	bw := flag.Float64("bandwidth", 10, "source-side send budget (messages/second), shared across all caches")
	mode := flag.String("mode", "push", "sync policy: push (source-initiated refreshes) or poll|ideal|cgm1|cgm2 (answer cache-driven polls; pair with cachesyncd -mode)")
	rebalance := flag.Duration("rebalance", 0, "periodic share re-allocation interval from observed feedback/divergence (0 = static shares)")
	group := flag.Bool("group", false, "session-group fan-out: default-weight push destinations share one scheduling pass and one encode per batch (encode-once delivery)")
	pprofFlag := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the -http mux")
	httpAddr := flag.String("http", "", "optional HTTP admin address (GET /status, POST /caches/add, POST /caches/remove)")
	seed := flag.Int64("seed", time.Now().UnixNano(), "workload seed")
	statsEvery := flag.Duration("stats", 5*time.Second, "stats print interval (0 = silent)")
	flag.Parse()

	policy, err := runtime.ParsePolicy(*mode)
	if err != nil {
		log.Fatalf("sourceagent: -mode: %v", err)
	}
	// Advertise the peer-serving capability unconditionally: this build's
	// answer path understands known-version hints (wire.Poll.Known), so
	// caches may attach them and save redundant reply items.
	transport.SetDialCapabilities(wire.CapPeer)
	addrs := []string{*addr}
	weights := []float64{0}
	if *caches != "" {
		var err error
		addrs, weights, err = destspec.Parse(*caches)
		if err != nil {
			log.Fatalf("sourceagent: -caches: %v", err)
		}
	}
	// A restarted cache rejoins the fan-out: each session redials with
	// backoff (DialDestinations wires the Redial closures) and
	// re-registers every object. A cache that is down at start-up is
	// reported and retried rather than failing the agent.
	dests, deferred := runtime.DialDestinations(addrs, weights, *id)
	for _, a := range deferred {
		log.Printf("sourceagent: cache %s unreachable, will keep redialing", a)
	}
	src, err := runtime.NewFanoutSource(runtime.SourceConfig{
		ID:        *id,
		Metric:    metric.ValueDeviation,
		Bandwidth: *bw,
		Rebalance: *rebalance,
		Policy:    policy,
		Group:     runtime.GroupConfig{Enabled: *group},
	}, dests)
	if err != nil {
		log.Fatalf("sourceagent: %v", err)
	}
	log.Printf("sourceagent %s: policy %v, %d objects, %.2g updates/s, %.2g msgs/s to %s",
		*id, policy, *objects, *rate, *bw, strings.Join(addrs, ", "))
	if *pprofFlag && *httpAddr == "" {
		log.Printf("sourceagent: -pprof has no effect without -http")
	}
	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(src.Stats())
		})
		mux.HandleFunc("/caches/add", adminhttp.AddHandler(src.AddDestination, *id))
		mux.HandleFunc("/caches/remove", adminhttp.RemoveHandler(src.RemoveDestination))
		if *pprofFlag {
			adminhttp.RegisterPprof(mux)
		}
		go func() {
			log.Printf("sourceagent: admin at http://%s (/status /caches/add /caches/remove)", *httpAddr)
			if err := http.ListenAndServe(*httpAddr, mux); err != nil {
				log.Printf("sourceagent: http: %v", err)
			}
		}()
	}

	rng := rand.New(rand.NewSource(*seed))
	values := make([]float64, *objects)
	interval := time.Duration(float64(time.Second) / *rate)
	if interval <= 0 {
		interval = time.Millisecond
	}
	updates := time.NewTicker(interval)
	defer updates.Stop()
	// 0 = silent, same pattern as cachesyncd (a zero ticker panics; a
	// stopped one never fires).
	var stats *time.Ticker
	if *statsEvery > 0 {
		stats = time.NewTicker(*statsEvery)
	} else {
		stats = time.NewTicker(time.Hour)
		stats.Stop()
	}
	defer stats.Stop()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)

	for {
		select {
		case <-stop:
			log.Printf("sourceagent %s: shutting down", *id)
			src.Close()
			return
		case <-updates.C:
			i := rng.Intn(*objects)
			if rng.Intn(2) == 0 {
				values[i]++
			} else {
				values[i]--
			}
			src.Update(fmt.Sprintf("%s/obj-%d", *id, i), values[i])
		case <-stats.C:
			st := src.Stats()
			if policy.CacheDriven() {
				fmt.Printf("updates=%d polls_answered=%d reply_items=%d errors=%d\n",
					st.Updates, st.PollsAnswered, st.Refreshes, st.SendErrors)
				continue
			}
			fmt.Printf("updates=%d refreshes=%d feedback=%d errors=%d pending=%d rebalances=%d threshold=%.4g\n",
				st.Updates, st.Refreshes, st.Feedbacks, st.SendErrors, st.Pending, st.Rebalances, st.Threshold)
			if g := st.Group; g != nil {
				fmt.Printf("  group members=%d batches=%d delivered=%d fallbacks=%d lags=%d caught_up=%d overruns=%d share=%.3g/s early=%d\n",
					g.Members, g.Batches, g.Delivered, g.Fallbacks, g.Detaches, g.Rejoins, g.QueueOverruns, g.MemberShare, g.EarlyBatches)
			}
			if len(st.Sessions) > 1 {
				for _, sess := range st.Sessions {
					ended := ""
					if sess.Ended {
						ended = " ENDED"
					}
					fmt.Printf("  cache %-24s share=%.3g/s weight=%.3g refreshes=%d feedback=%d reconnects=%d threshold=%.4g%s\n",
						sess.CacheID, sess.Share, sess.Weight, sess.Refreshes, sess.Feedbacks, sess.Reconnects, sess.Threshold, ended)
				}
			}
		}
	}
}
