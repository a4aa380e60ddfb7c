package runtime

import (
	"time"

	"bestsync/internal/cgm"
)

// HybridConfig tunes the per-object migration controller behind
// PolicyHybrid (SourceConfig.Hybrid). Each destination classifies every
// object into a push set (source-initiated refreshes through the §5
// threshold machinery) or a poll set (cache-driven CGM polling); the
// controller re-scores all objects once per MigrateEvery window and moves
// them across a hysteresis band:
//
//	score = divPerMsg × λ̂ × pollCost
//
// where divPerMsg is the EWMA-smoothed divergence observed per message
// spent on the object (how much synchronization value one message buys —
// the push-side signal), λ̂ is the live CGM1 last-modified estimate of the
// object's update rate fed from the source's own update stream (the
// poll-side cost driver: tracking rate λ by polling costs ≈ 2λ messages
// per second), and pollCost is the practical poll round trip (2). An
// object scores high when it changes often AND its messages move real
// divergence — exactly the hot head push serves best; a cold-tail object
// decays toward zero and is cheaper to poll at its cgm.OptimalAllocation
// frequency.
type HybridConfig struct {
	// Promote is the score at or above which a polled object joins the
	// push set. Default 8.
	Promote float64
	// Demote is the score at or below which a pushed object returns to
	// the poll set. Must sit below Promote — the band between the two is
	// the hysteresis dead zone that keeps an object whose score hovers
	// near one threshold from flapping between regimes. Default 2.
	Demote float64
	// Gain is the EWMA smoothing gain for the divergence-per-message
	// signal, the same shape alloc.Rebalancer uses for contribution
	// scores: 1 trusts only the latest window, small values average long.
	// Default 0.4.
	Gain float64
	// MigrateEvery is the scoring window: the controller re-scores and
	// migrates once per interval. Default 500ms.
	MigrateEvery time.Duration
}

// withDefaults fills zero fields with the documented defaults.
func (h HybridConfig) withDefaults() HybridConfig {
	if h.Promote <= 0 {
		h.Promote = 8
	}
	if h.Demote <= 0 {
		h.Demote = 2
	}
	if h.Gain <= 0 || h.Gain > 1 {
		h.Gain = 0.4
	}
	if h.MigrateEvery <= 0 {
		h.MigrateEvery = 500 * time.Millisecond
	}
	return h
}

// HybridStats is the migration controller's observable state: the current
// regime split and the cumulative migrations (SessionStats.Hybrid per
// session, SourceStats.Hybrid aggregated).
type HybridStats struct {
	// PushObjects and PollObjects are the current set sizes.
	PushObjects int
	PollObjects int
	// Promotions and Demotions count poll→push and push→poll migrations.
	Promotions int
	Demotions  int
	// PolledItems counts the values delivered through the poll half —
	// targeted poll-reply items answered from the store. The push half's
	// deliveries are SessionStats.Refreshes minus this.
	PolledItems int
}

// hybridObj is the controller's per-object state: the current regime,
// the open scoring window's raw observations, the smoothed score input,
// and the rate estimator.
type hybridObj struct {
	pushed bool
	// Window accumulators, reset each migrate pass.
	divWin  float64 // divergence growth observed this window
	msgsWin float64 // messages charged against this object this window
	chgWin  int     // updates observed this window
	// divPerMsg is the EWMA of divWin/max(msgsWin,1) across windows.
	divPerMsg float64
	// lastMod is the protocol time of the most recent observed update,
	// feeding the estimator's last-modified ages.
	lastMod float64
	est1    cgm.LastModifiedEstimator
}

// hybridController is one destination's migration controller, on its group's
// scheduler. All state is guarded by the owning Source's mutex, like the rest
// of the scheduling state; migrate is called from the session's loop.
// Objects start in the POLL set: a new object has no divergence-per-message
// history, and polling is the regime that builds one without the source
// committing push bandwidth to it.
type hybridController struct {
	cfg  HybridConfig
	objs []hybridObj

	lastMigrate float64 // protocol time of the last migrate pass (window start)
	pushCount   int
	promotions  int
	demotions   int
	polled      int // targeted poll-reply items answered (poll-half deliveries)
}

func newHybridController(cfg HybridConfig) *hybridController {
	return &hybridController{cfg: cfg.withDefaults()}
}

// ensure grows the per-object table through key (the source's intern
// index), mirroring how schedObj slices grow with the store.
func (hc *hybridController) ensure(key int) *hybridObj {
	for len(hc.objs) <= key {
		hc.objs = append(hc.objs, hybridObj{})
	}
	return &hc.objs[key]
}

// pushed reports object key's current regime.
func (hc *hybridController) pushed(key int) bool {
	return hc.ensure(key).pushed
}

// observe folds one canonical update into object key's open window:
// divDelta is the divergence growth the update produced toward this
// destination's cache (zero when the value walked back toward the sent copy).
func (hc *hybridController) observe(key int, divDelta, now float64) {
	ho := hc.ensure(key)
	ho.chgWin++
	if divDelta > 0 {
		ho.divWin += divDelta
	}
	ho.lastMod = now
}

// charge records msgs messages spent on object key this window — 1 per
// push refresh sent, the poll round-trip cost per targeted poll answered.
func (hc *hybridController) charge(key int, msgs float64) {
	hc.ensure(key).msgsWin += msgs
}

// migrate closes the scoring window: every object's estimator absorbs the
// window's change observation, its divergence-per-message EWMA updates,
// and its score is compared against the hysteresis band. Returned are the
// intern keys promoted into the push set and demoted out of it; the caller
// re-queues the former and removes the latter from its priority queue.
func (hc *hybridController) migrate(now float64) (promoted, demoted []int) {
	window := now - hc.lastMigrate
	hc.lastMigrate = now
	if window <= 0 {
		return nil, nil
	}
	for key := range hc.objs {
		ho := &hc.objs[key]
		// The source observes its own update stream, so the controller
		// feeds the estimator one synthetic "poll" per window: changed if
		// any update landed, with the true last-modified age — the same
		// observation a CGM1 cache would extract, at zero message cost.
		age := now - ho.lastMod
		if age < 0 {
			age = 0
		}
		ho.est1.Observe(ho.chgWin > 0, window, age)
		lambda := ho.est1.Estimate()
		if lambda <= 0 {
			lambda = ho.est1.FloorRate()
		}
		inst := ho.divWin
		if ho.msgsWin > 1 {
			inst = ho.divWin / ho.msgsWin
		}
		ho.divPerMsg += hc.cfg.Gain * (inst - ho.divPerMsg)
		score := ho.divPerMsg * lambda * pollRoundTrip
		switch {
		case !ho.pushed && score >= hc.cfg.Promote:
			ho.pushed = true
			hc.pushCount++
			hc.promotions++
			promoted = append(promoted, key)
		case ho.pushed && score <= hc.cfg.Demote:
			ho.pushed = false
			hc.pushCount--
			hc.demotions++
			demoted = append(demoted, key)
		}
		ho.divWin, ho.msgsWin, ho.chgWin = 0, 0, 0
	}
	return promoted, demoted
}

// pollRoundTrip is the practical poll cost in messages (request +
// response), the factor that converts an update rate into a poll-side
// message rate when scoring.
const pollRoundTrip = 2

// pushSet returns the ids of the objects currently in the push set, in
// queue-key order; order is the source's key → object table. The slice is
// freshly allocated — it is handed to the wire layer as PollReply.Pushed.
func (hc *hybridController) pushSet(order *objSlab) []string {
	if hc.pushCount == 0 {
		return nil
	}
	out := make([]string, 0, hc.pushCount)
	for o := range order.all() {
		if key := int(o.key); key < len(hc.objs) && hc.objs[key].pushed {
			out = append(out, o.id)
		}
	}
	return out
}

// statsLocked snapshots the controller. Caller holds the source mutex.
func (hc *hybridController) statsLocked() HybridStats {
	return HybridStats{
		PushObjects: hc.pushCount,
		PollObjects: len(hc.objs) - hc.pushCount,
		Promotions:  hc.promotions,
		Demotions:   hc.demotions,
		PolledItems: hc.polled,
	}
}
