// Peer faces: the symmetric node abstraction behind both the classic
// relay tree and the cooperative cache mesh.
//
// A node is two engines — a Cache toward whoever sends to it and a fan-out
// Source toward whoever it sends to — and treats every link as a PEER LINK:
// the intake face accepts refreshes and poll replies from anyone (upstream,
// lateral neighbor), and the peer face pushes applied values to — and
// answers polls from — every attached peer out of the same local store.
// Freshness is decided by the origin-axis guard (wire.Refresh.OriginAxis),
// never by link direction, so the same Node works as a tree tier (peers =
// children), a ring member (peer = successor), or a mesh participant (peers =
// all neighbors); loop safety is the path-vector machinery (Via, split
// horizon, MaxHops), which is direction-agnostic.
package runtime

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"bestsync/internal/alloc"
	"bestsync/internal/core"
	"bestsync/internal/metric"
	"bestsync/internal/priority"
	"bestsync/internal/transport"
	"bestsync/internal/wire"
)

// NodeConfig configures a cooperative node — a cache tier that re-exports
// the refreshes it applies toward a set of attached peers (children in a
// tree, neighbors in a ring or mesh).
type NodeConfig struct {
	// ID is the node's identity on both faces: the cache id stamped on
	// intake feedback AND the source id its peers see on re-exported
	// refreshes and poll replies. Default "node".
	ID string
	// Intake configures the intake-facing cache (processing bandwidth,
	// policy). Its ID, OnApply, Reject and Now fields are owned by the
	// node and must be left zero.
	Intake CacheConfig
	// PeerBandwidth is the peer-face send budget in messages/second,
	// divided across the attached peers by their share weights (Section 7
	// allocation). Default 1000 (with TotalBandwidth set: half the total).
	PeerBandwidth float64
	// TotalBandwidth, when positive, puts the node's two faces under one
	// shared budget: Intake.Bandwidth (intake processing) and PeerBandwidth
	// (peer sends) become the initial split — defaulting to half each — and
	// the periodic rebalance pass shifts budget between the faces from
	// observed backlog. Zero keeps the faces on their independent static
	// budgets.
	TotalBandwidth float64
	// Rebalance enables the periodic re-allocation passes on both the
	// peer-session shares and (with TotalBandwidth) the face split.
	Rebalance time.Duration
	// Metric selects the divergence metric driving peer refresh
	// priorities; Delta and PriorityFn refine it as on SourceConfig.
	Metric     metric.Kind
	Delta      metric.DeltaFunc
	PriorityFn priority.Fn
	// Tick is the peer send-loop interval (default 100 ms).
	Tick time.Duration
	// Params tunes the peer-facing threshold algorithm; zero means paper
	// defaults.
	Params core.Params
	// MaxHops bounds re-export depth: a refresh that has already crossed
	// MaxHops tiers is applied locally but not forwarded (counted in
	// NodeStats.HopLimited). Default 8.
	MaxHops int
	// PeerPolicy selects the synchronization policy of the peer face
	// (SourceConfig.Policy): push re-exports applied refreshes
	// source-initiated; cache-driven policies only answer polls. Peer
	// destinations must be poll-capable connections for any polling
	// PeerPolicy.
	PeerPolicy Policy
	// Group configures session-group fan-out on the peer face
	// (SourceConfig.Group).
	Group GroupConfig
	// SpliceForward enables the zero-copy relay fast path: when the intake
	// transport can retain inbound binary frames (transport.FrameRetainer),
	// applied batches are re-exported by splice-patching the retained frame
	// — eligible items' bytes copied verbatim, only the per-hop fields
	// rewritten — and fanning the result through the session group, instead
	// of decoding, re-observing and re-encoding every refresh. Requires
	// group delivery on a push peer face with the value-deviation metric;
	// every other shape falls back to the classic path transparently (see
	// docs/algorithm-specifications.md §14).
	SpliceForward bool
	// Now overrides the clock for both faces (tests); defaults to
	// time.Now.
	Now func() time.Time
}

// NodeStats is a node's per-face statistics breakdown plus the re-export
// decisions in between.
type NodeStats struct {
	// Intake counts the cache face: refreshes applied from other nodes,
	// feedback sent, stale drops, lateral (peer-served) applies.
	Intake CacheStats
	// Peers counts the source face: updates fanned into peer sessions,
	// refreshes sent on, polls answered, per-peer session breakdown.
	Peers SourceStats
	// Forwarded counts applied refreshes re-exported as peer updates.
	Forwarded int
	// SuppressedBatches counts apply batches whose re-export was skipped
	// because the node had no live peers — the source-mutex round trip is
	// not paid when nothing downstream would receive the updates. The first
	// peer to (re)attach is seeded from the store instead.
	SuppressedBatches int
	// ThresholdSuppressed is always zero: no re-export's scheduling is
	// deferred any more (SourceStats.SuppressedObserves). Kept for readers of
	// older output.
	ThresholdSuppressed int
	// Looped counts refreshes rejected at intake because this node was
	// already on their path (Via) or was their origin. Mirrored in
	// Intake.Rejected.
	Looped int
	// HopLimited counts refreshes dropped from re-export because
	// forwarding would exceed MaxHops.
	HopLimited int
	// SplicedBatches counts apply batches re-exported over the zero-copy
	// splice path (NodeConfig.SpliceForward); SplicedRefreshes counts the
	// refreshes those batches broadcast. SpliceFallbacks counts framed
	// batches that arrived splice-eligible but fell back whole to the
	// classic decode→update→re-encode path (no group members, wrong
	// policy/metric shape, unparseable frame).
	SplicedBatches   int
	SplicedRefreshes int
	SpliceFallbacks  int
	// IntakeBandwidth and PeerBandwidth are the current face budgets: the
	// cache face's processing rate and the peer face's send rate. With
	// TotalBandwidth set they move on every face rebalance pass; otherwise
	// they are the static configured values.
	IntakeBandwidth float64
	PeerBandwidth   float64
	// FaceRebalances counts completed face re-allocation passes.
	FaceRebalances int
}

// Node is a cooperative cache node: toward every link it behaves as the
// paper's protocol demands — it applies whatever fresher-on-the-origin-axis
// refreshes arrive on its intake endpoint, and toward its attached peers it
// is a fan-out Source whose updates are the refreshes it just applied and
// whose poll answers come from the same store, stamped with the stored
// provenance (lateral serving). A relay tier in a cache→cache tree is a Node
// whose peers are its children.
//
// Provenance and loop-avoidance: re-exported refreshes keep the origin
// source id (wire.Refresh.Origin) and carry an incremented hop count and
// the path of nodes traversed (wire.Refresh.Hops/.Via). A refresh whose
// path already contains this node — or whose origin is the node itself —
// crossed a topology cycle and is rejected at intake, never applied or
// re-exported (NodeStats.Looped; see rejectCycle). A refresh that has
// already crossed MaxHops tiers is applied locally but not forwarded
// (NodeStats.HopLimited). Lateral poll answers add no hop of their own —
// the stored Via already ends with this node, and the ASKER's re-export is
// what appends the asker; split horizon (session.answerPoll) keeps a value
// from being served back to a peer already on its path.
//
// Divergence composition across tiers is unchanged from the tree case; see
// docs/algorithm-specifications.md §8 and §13.
type Node struct {
	cfg   NodeConfig
	cache *Cache
	src   *Source

	mu         sync.Mutex
	forwarded  int
	looped     int
	hopLimited int
	suppressed int  // apply batches not re-exported (no live peers)
	storeAhead bool // suppression happened: the source's objs lag the store
	// Splice-forwarding counters (NodeConfig.SpliceForward).
	splicedBatches   int
	splicedRefreshes int
	spliceFallbacks  int
	// Face-rebalance state (TotalBandwidth + Rebalance): smoothed
	// contribution scores per face, the operator's configured split as
	// base weights, and the observation-window marks.
	faceReb          *alloc.Rebalancer
	upBW, downBW     float64
	upBase, downBase float64
	faceRebalances   int
	lastUpApplied    int
	lastDownSent     int

	stop      chan struct{}
	closeOnce sync.Once
}

// NewNode starts a cooperative node: intake is the endpoint other nodes
// send refreshes to (and poll this node through), peers are the
// destinations this node dials and keeps synchronized. Close the node (not
// the endpoint) to shut down.
func NewNode(cfg NodeConfig, intake transport.CacheEndpoint, peers []Destination) (*Node, error) {
	if cfg.ID == "" {
		cfg.ID = "node"
	}
	if cfg.Intake.ID != "" || cfg.Intake.OnApply != nil || cfg.Intake.Reject != nil || cfg.Intake.Now != nil {
		return nil, fmt.Errorf("runtime: NodeConfig.Intake.{ID,OnApply,Reject,Now} are owned by the node; configure NodeConfig.ID/Now instead")
	}
	if cfg.Intake.Policy.CacheDriven() {
		// A cache-driven intake face has no feedback channel for the
		// held-version acks the re-export machinery leans on.
		return nil, fmt.Errorf("runtime: node intake faces support the push policy only (got %v)", cfg.Intake.Policy)
	}
	if cfg.TotalBandwidth > 0 {
		// Shared face budget: unset faces default to half the total each;
		// explicitly set faces are kept as a RATIO and normalized so the
		// initial split already sums to the total — otherwise the first
		// rebalance pass would snap the aggregate from Σfaces to
		// TotalBandwidth, a silent mid-run budget cliff.
		up, down := cfg.Intake.Bandwidth, cfg.PeerBandwidth
		switch {
		case up <= 0 && down <= 0:
			up, down = cfg.TotalBandwidth/2, cfg.TotalBandwidth/2
		case up <= 0:
			if down >= cfg.TotalBandwidth {
				down = cfg.TotalBandwidth / 2
			}
			up = cfg.TotalBandwidth - down
		case down <= 0:
			if up >= cfg.TotalBandwidth {
				up = cfg.TotalBandwidth / 2
			}
			down = cfg.TotalBandwidth - up
		default:
			scale := cfg.TotalBandwidth / (up + down)
			up, down = up*scale, down*scale
		}
		cfg.Intake.Bandwidth, cfg.PeerBandwidth = up, down
	}
	if cfg.PeerBandwidth <= 0 {
		cfg.PeerBandwidth = 1000
	}
	if cfg.MaxHops <= 0 {
		cfg.MaxHops = 8
	}
	n := &Node{cfg: cfg, stop: make(chan struct{})}
	src, err := NewFanoutSource(SourceConfig{
		ID:         cfg.ID,
		Metric:     cfg.Metric,
		Delta:      cfg.Delta,
		PriorityFn: cfg.PriorityFn,
		Bandwidth:  cfg.PeerBandwidth,
		Tick:       cfg.Tick,
		Params:     cfg.Params,
		Policy:     cfg.PeerPolicy,
		Rebalance:  cfg.Rebalance,
		Group:      cfg.Group,
		Now:        cfg.Now,
	}, peers)
	if err != nil {
		return nil, err
	}
	n.src = src
	cacheCfg := cfg.Intake
	cacheCfg.ID = cfg.ID
	cacheCfg.Now = cfg.Now
	cacheCfg.OnApply = n.reexport
	cacheCfg.Reject = n.rejectCycle
	if cfg.SpliceForward {
		// Zero-copy re-export: ask the intake transport to retain inbound
		// binary frames and route framed apply batches through the splice
		// hook. Transports without frame retention (Local) simply never
		// produce a retained frame, so every batch takes the classic path.
		cacheCfg.OnForward = n.onForward
		if fr, ok := intake.(transport.FrameRetainer); ok {
			fr.RetainFrames(true)
		}
	}
	n.cache = NewCache(cacheCfg, intake)
	n.upBW = n.cache.Bandwidth()
	n.downBW = cfg.PeerBandwidth
	// The configured split is the faces' base-weight ratio: it scales their
	// contribution scores and is what an all-idle window falls back to, so
	// an operator's asymmetric split survives rebalancing instead of
	// snapping to half-half.
	n.upBase, n.downBase = n.upBW, n.downBW
	if cfg.TotalBandwidth > 0 && cfg.Rebalance > 0 {
		// Faces must not starve each other outright: a face floored at a
		// fifth of its fair half keeps absorbing or sending enough to
		// regrow its demand signal and earn the budget back.
		n.faceReb = &alloc.Rebalancer{FloorFrac: 0.2}
		go n.rebalanceFaces()
	}
	return n, nil
}

// AddPeer starts a sync session toward a new peer on a running node,
// re-dividing the peer budget across all peers; the new peer is
// synchronized from the node's full store. See Source.AddDestination.
//
// If re-exports were suppressed while the node had no peers, the source's
// object set lags the store, so the store is re-exported once to bring the
// peer face back in step (for the value-deviation metric the surviving
// peers see no extra sends from this — their re-observed divergence is
// zero).
func (n *Node) AddPeer(d Destination) error {
	if err := n.src.AddDestination(d); err != nil {
		return err
	}
	n.mu.Lock()
	behind := n.storeAhead
	n.storeAhead = false
	n.mu.Unlock()
	if behind {
		n.ReexportStore()
	}
	return nil
}

// RemovePeer stops the session toward the peer whose Destination.CacheID is
// cacheID and re-divides the peer budget across the survivors. See
// Source.RemoveDestination.
func (n *Node) RemovePeer(cacheID string) error { return n.src.RemoveDestination(cacheID) }

// rebalanceFaces is the node's intake/peer budget pass: every Rebalance
// interval it scores each face by observed demand — budget actually used
// during the window plus backlog still waiting (intake queue on the cache
// face, over-threshold objects on the peer face) — smooths the scores, and
// re-splits TotalBandwidth between Cache.SetBandwidth and
// Source.SetBandwidth. A face that spent its budget and still has work
// queued earns more; an idle face decays toward the floor, surrendering
// intake capacity the upstream is not using to the peers (and vice versa).
func (n *Node) rebalanceFaces() {
	ticker := time.NewTicker(n.cfg.Rebalance)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C:
		}
		cs := n.cache.Stats()
		ss := n.src.Stats()
		n.mu.Lock()
		// Window deltas over aggregates that can shrink: RemovePeer takes
		// the removed session's historical refreshes out of the source
		// aggregate, so a removal window would otherwise read as hugely
		// negative use and zero the face's budget.
		upUsed := max(0, cs.Refreshes-n.lastUpApplied)
		n.lastUpApplied = cs.Refreshes
		downUsed := max(0, ss.Refreshes-n.lastDownSent)
		n.lastDownSent = ss.Refreshes
		// Peer-face backlog counts only what can be delivered: a redialing
		// peer lags on the whole store but its sends go nowhere, and letting
		// that phantom backlog capture budget from the intake face is the
		// same starvation the session-level rebalancer guards against. A
		// group of one's queue is in its member's Pending; the shared
		// group's counts once, while a member can take it.
		pending, shared := 0, false
		for _, sess := range ss.Sessions {
			if !sess.Ended && !sess.Redialing {
				pending += sess.Pending
				shared = shared || sess.Grouped
			}
		}
		if shared {
			pending += ss.Group.Pending
		}
		n.faceReb.Observe([]alloc.Consumer{
			{ID: "up", Base: n.upBase, Demand: float64(upUsed + n.cache.backlog())},
			{ID: "down", Base: n.downBase, Demand: float64(downUsed + pending)},
		})
		w := n.faceReb.Weights([]string{"up", "down"}, []float64{n.upBase, n.downBase})
		shares := alloc.Proportional(n.cfg.TotalBandwidth, w)
		n.upBW, n.downBW = shares[0], shares[1]
		n.faceRebalances++
		n.mu.Unlock()
		n.cache.SetBandwidth(shares[0])
		n.src.SetBandwidth(shares[1])
	}
}

// rejectCycle drops refreshes that crossed a topology cycle (this node is
// already on their path, or is their origin) before they reach the store.
// Rejecting at intake — rather than applying and merely skipping the
// re-export — matters because each hop re-issues epochs: a cycled copy
// applied under the cycle peer's newer epoch would capture the entry and
// shadow every subsequent direct refresh as stale. The same guard filters
// poll-installed refreshes (Cache.installPolled), so a mesh neighbor
// serving this node's own re-export back over a poll reply is dropped
// identically.
func (n *Node) rejectCycle(ref wire.Refresh) bool {
	if ref.OriginID() != n.cfg.ID && !slices.Contains(ref.Via, n.cfg.ID) {
		return false
	}
	n.mu.Lock()
	n.looped++
	n.mu.Unlock()
	return true
}

// reexport converts a batch of applied refreshes into peer updates. It runs
// on the cache's dispatcher (or under ReexportStore's read lock), once per
// batch, so refreshes for one object arrive in apply order — the same
// ordering contract Update gives a plain source.
//
// Loop check: a refresh is dropped from re-export when this node already
// appears on its path — either as the origin or anywhere in the Via path
// vector. The path check is what bounds real topology cycles (A→B→A): in a
// cycle the origin is the root source at every hop and never matches, but
// the cycle's nodes accumulate on Via, so the second visit is caught.
func (n *Node) reexport(applied []wire.Refresh) {
	if n.src.LiveDestinations() == 0 {
		// No live peers: skip the source-mutex round trip entirely —
		// today's apply batch has nobody to go to. The storeAhead flag
		// makes AddPeer seed the next peer from the store, which has
		// everything these suppressed batches carried.
		n.mu.Lock()
		n.suppressed++
		n.storeAhead = true
		n.mu.Unlock()
		return
	}
	var looped, hopLimited int
	memo := viaMemo{id: n.cfg.ID}
	updates := make([]RelayedUpdate, 0, len(applied))
	for _, ref := range applied {
		origin := ref.OriginID()
		if origin == n.cfg.ID || slices.Contains(ref.Via, n.cfg.ID) {
			looped++ // defense in depth; rejectCycle already filters these
			continue
		}
		// Depth = max of the declared hop count and the path length, so a
		// sender under-reporting Hops cannot bypass the ceiling (Via is
		// what nodes actually append to; Hops is the displayed summary).
		hops := ref.Hops
		if l := len(ref.Via); l > hops {
			hops = l
		}
		if hops+1 > n.cfg.MaxHops {
			hopLimited++
			continue
		}
		// One appended path per distinct inbound Via in the batch (almost
		// always exactly one — everything arrived through the same
		// upstream), not one allocation per refresh.
		via := memo.path(ref.Via)
		oe, ov := ref.OriginAxis() // preserved unchanged across every hop
		updates = append(updates, RelayedUpdate{
			ObjectID: ref.ObjectID,
			Value:    ref.Value,
			Prov:     Provenance{Origin: origin, Hops: hops + 1, Via: via, Epoch: oe, Version: ov},
		})
	}
	// One lock round-trip for the whole apply batch, not one per message.
	n.src.UpdateFromAll(updates)
	n.mu.Lock()
	n.forwarded += len(updates)
	n.looped += looped
	n.hopLimited += hopLimited
	n.mu.Unlock()
}

// ReexportStore re-exports every locally cached entry to the peers as if it
// had just been applied. This is the warm-up path for a node restarted from
// a snapshot (loading one bypasses the apply hook), and the catch-up path
// for the first peer attached after a suppressed stretch.
//
// Snapshot-age protection: a re-export carries this incarnation's sender
// epoch but preserves the ORIGIN's version axis, so a peer holding a newer
// value drops the stale re-export at intake and acknowledges its held
// version on feedback (wire.Feedback.Held) — a peer acks only stale drops,
// never an applied copy — which cancels later sends it is at-or-ahead of,
// such as the re-sync (SessionStats.HeldSkips). The peer never regresses.
//
// The store is walked one slab chunk at a time, each chunk re-exported under
// the cache's read lock: a live apply of the same object is thereby ordered
// against the snapshot read, so a racing fresher value always reaches the peer
// sessions after — never before — the snapshot one. The lock order cache →
// source is taken nowhere in reverse.
func (n *Node) ReexportStore() {
	c := n.cache
	batch := make([]wire.Refresh, 0, slabChunk)
	for start := int32(0); ; start += slabChunk {
		c.mu.RLock()
		batch = c.store.appendChunk(batch[:0], start)
		if len(batch) > 0 {
			n.reexport(batch)
		}
		c.mu.RUnlock()
		if len(batch) == 0 {
			return
		}
	}
}

// ID returns the node's identity (shared by both faces).
func (n *Node) ID() string { return n.cfg.ID }

// Cache returns the intake-facing cache, for reads (Get/Len), snapshots
// and the HTTP status handler. The store it serves is the node's local
// copy of everything applied so far.
func (n *Node) Cache() *Cache { return n.cache }

// Source returns the peer-facing fan-out source, for stats and tests.
func (n *Node) Source() *Source { return n.src }

// Get returns the node's local copy of an object.
func (n *Node) Get(objectID string) (Entry, bool) { return n.cache.Get(objectID) }

// Len returns the number of locally cached objects.
func (n *Node) Len() int { return n.cache.Len() }

// Stats snapshots both faces and the re-export counters.
func (n *Node) Stats() NodeStats {
	st := NodeStats{
		Intake: n.cache.Stats(),
		Peers:  n.src.Stats(),
	}
	n.mu.Lock()
	st.Forwarded = n.forwarded
	st.Looped = n.looped
	st.HopLimited = n.hopLimited
	st.SuppressedBatches = n.suppressed
	st.SplicedBatches = n.splicedBatches
	st.SplicedRefreshes = n.splicedRefreshes
	st.SpliceFallbacks = n.spliceFallbacks
	st.IntakeBandwidth = n.upBW
	st.PeerBandwidth = n.downBW
	st.FaceRebalances = n.faceRebalances
	n.mu.Unlock()
	return st
}

// Close stops the intake cache first (no new applies, so no new
// re-exports) and then the peer-facing source, returning the first error.
// In-flight peer refreshes are cut off with the connections, exactly as
// for a plain fan-out source.
func (n *Node) Close() error {
	n.closeOnce.Do(func() { close(n.stop) })
	err := n.cache.Close()
	if serr := n.src.Close(); err == nil {
		err = serr
	}
	return err
}
