package runtime

import (
	"fmt"
	"testing"
	"time"

	"bestsync/internal/metric"
	"bestsync/internal/transport"
	"bestsync/internal/wire"
)

// TestHybridConfigDefaults pins the documented defaults and that explicit
// values survive withDefaults.
func TestHybridConfigDefaults(t *testing.T) {
	d := HybridConfig{}.withDefaults()
	if d.Promote != 8 || d.Demote != 2 || d.Gain != 0.4 || d.MigrateEvery != 500*time.Millisecond {
		t.Errorf("defaults = %+v, want {8 2 0.4 500ms}", d)
	}
	if d.Demote >= d.Promote {
		t.Errorf("default band inverted: demote %v ≥ promote %v", d.Demote, d.Promote)
	}
	c := HybridConfig{Promote: 3, Demote: 0.5, Gain: 1, MigrateEvery: time.Second}.withDefaults()
	if c.Promote != 3 || c.Demote != 0.5 || c.Gain != 1 || c.MigrateEvery != time.Second {
		t.Errorf("explicit config mangled: %+v", c)
	}
	if g := (HybridConfig{Gain: 1.5}).withDefaults().Gain; g != 0.4 {
		t.Errorf("out-of-range gain kept: %v", g)
	}
}

// hybridStep is one scoring window fed to the controller under test: an
// optional observed update (divergence delta at a given time) and the
// migrations the window's closing migrate pass must produce for object 0.
type hybridStep struct {
	div      float64 // divergence delta observed this window (0 = idle window)
	at       float64 // protocol time of the observation
	end      float64 // window end = migrate time
	promoted bool
	demoted  bool
}

// TestHybridControllerMigrationThresholds drives the controller through
// hand-computed windows with Gain 1 (divPerMsg = the latest window verbatim)
// so each score is exact: score = div × λ̂ × pollRoundTrip, with λ̂ the CGM1
// MLE over the synthetic per-window observations.
func TestHybridControllerMigrationThresholds(t *testing.T) {
	cases := []struct {
		name  string
		cfg   HybridConfig
		steps []hybridStep
	}{
		{
			// Window 1: λ̂ = 1 change / 0.5s age = 2, div 2 → score 2·2·2 = 8,
			// exactly the promote threshold (≥ promotes).
			name: "promote at threshold",
			cfg:  HybridConfig{Gain: 1},
			steps: []hybridStep{
				{div: 2, at: 0.5, end: 1, promoted: true},
			},
		},
		{
			// Same shape with div 1.9 → score 7.6 < 8: stays polled.
			name: "below promote stays polled",
			cfg:  HybridConfig{Gain: 1},
			steps: []hybridStep{
				{div: 1.9, at: 0.5, end: 1},
			},
		},
		{
			// Promoted hot, then a near-idle window: λ̂ = 2/(0.5+0.5) = 2,
			// div 0.2 → score 0.8 ≤ 2 demotes.
			name: "demote when the signal dies",
			cfg:  HybridConfig{Gain: 1},
			steps: []hybridStep{
				{div: 2, at: 0.5, end: 1, promoted: true},
				{div: 0.2, at: 1.5, end: 2, demoted: true},
			},
		},
		{
			// A pushed object whose score lands inside the (2, 8) hysteresis
			// band migrates in neither direction.
			name: "band holds the current regime",
			cfg:  HybridConfig{Gain: 1},
			steps: []hybridStep{
				{div: 2, at: 0.5, end: 1, promoted: true},
				{div: 1, at: 1.5, end: 2}, // λ̂ = 2, score 4: in the band
			},
		},
		{
			// An object nobody updates never earns its way into the push set:
			// λ̂ falls back to the 0.5/observed floor and div stays 0.
			name: "idle object never promotes",
			cfg:  HybridConfig{Gain: 1},
			steps: []hybridStep{
				{end: 1}, {end: 2}, {end: 3},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hc := newHybridController(tc.cfg)
			for i, step := range tc.steps {
				if step.div > 0 {
					hc.observe(0, step.div, step.at)
				}
				promoted, demoted := hc.migrate(step.end)
				if got := len(promoted) == 1; got != step.promoted {
					t.Fatalf("step %d: promoted=%v, want %v", i, got, step.promoted)
				}
				if got := len(demoted) == 1; got != step.demoted {
					t.Fatalf("step %d: demoted=%v, want %v", i, got, step.demoted)
				}
			}
			wantPush := 0
			var wantProm, wantDem int
			for _, step := range tc.steps {
				if step.promoted {
					wantPush, wantProm = 1, wantProm+1
				}
				if step.demoted {
					wantPush, wantDem = 0, wantDem+1
				}
			}
			st := hc.statsLocked()
			if st.PushObjects != wantPush || st.Promotions != wantProm || st.Demotions != wantDem {
				t.Errorf("stats = %+v, want push=%d promotions=%d demotions=%d",
					st, wantPush, wantProm, wantDem)
			}
			if hc.pushed(0) != (wantPush == 1) {
				t.Errorf("pushed(0) = %v, want %v", hc.pushed(0), wantPush == 1)
			}
		})
	}
}

// TestHybridControllerChargeDividesDivergence pins the messages-worth half of
// the score: the same divergence spread over more messages scores lower, so
// an object whose refreshes buy little synchronization drops out of the push
// set first.
func TestHybridControllerChargeDividesDivergence(t *testing.T) {
	cheap := newHybridController(HybridConfig{Gain: 1})
	costly := newHybridController(HybridConfig{Gain: 1})
	for _, hc := range []*hybridController{cheap, costly} {
		hc.observe(0, 4, 0.5)
	}
	costly.charge(0, 4) // same divergence, four messages spent
	p1, _ := cheap.migrate(1)
	p2, _ := costly.migrate(1)
	// cheap: score 4·2·2 = 16 promotes; costly: (4/4)·2·2 = 4 does not.
	if len(p1) != 1 {
		t.Errorf("uncharged object not promoted")
	}
	if len(p2) != 0 {
		t.Errorf("message-heavy object promoted despite low divergence per message")
	}
}

// TestHybridControllerHysteresisPreventsFlapping feeds the SAME oscillating
// update pattern — one hot window (div 4 observed at the window start), one
// idle window, repeated — to a controller with a wide hysteresis band and to
// one whose demote threshold sits just under its promote threshold. The
// narrow band converts every oscillation into a migration pair; the wide
// band absorbs the swing: one promotion, then steady.
func TestHybridControllerHysteresisPreventsFlapping(t *testing.T) {
	drive := func(cfg HybridConfig) HybridStats {
		hc := newHybridController(cfg)
		now := 0.0
		for w := 0; w < 12; w++ {
			if w%2 == 0 {
				hc.observe(0, 4, now) // update at the window start: age = 1 at migrate
			}
			now++
			hc.migrate(now)
		}
		return hc.statsLocked()
	}
	narrow := drive(HybridConfig{Promote: 2, Demote: 1.5, Gain: 0.5})
	wide := drive(HybridConfig{Promote: 2, Demote: 0.9, Gain: 0.5})
	if got := wide.Promotions + wide.Demotions; got != 1 {
		t.Errorf("wide band migrated %d times (%+v), want exactly the initial promotion", got, wide)
	}
	if wide.PushObjects != 1 {
		t.Errorf("wide band ended with the object out of the push set: %+v", wide)
	}
	if narrow.Promotions+narrow.Demotions < 4 {
		t.Errorf("narrow band did not flap (%+v) — the oscillation no longer exercises hysteresis", narrow)
	}
}

// TestHybridBudgetConservation runs a live hybrid source↔cache pair and
// audits the ISSUE's single-bucket contract: pushes (1 message), answered
// targeted poll items (the 2-message round trip) and discovery listings all
// drain ONE source-side token bucket, so their combined spend stays under
// bandwidth × elapsed regardless of how the migration controller splits the
// object set.
func TestHybridBudgetConservation(t *testing.T) {
	transport.SetDialCapabilities(wire.CapCooperative)
	defer transport.SetDialCapabilities(0)

	const (
		srcBW   = 50.0
		objects = 32
		hot     = 4
	)
	local := transport.NewLocal(64)
	start := time.Now()
	cache := NewCache(CacheConfig{
		ID: "hyb-cache", Bandwidth: 400, Tick: 10 * time.Millisecond,
		Policy: PolicyHybrid,
		Poll:   PollConfig{ReSolveEvery: 150 * time.Millisecond, Seed: 1},
	}, local)
	defer cache.Close()
	conn, err := local.Dial("hyb-src")
	if err != nil {
		t.Fatal(err)
	}
	src := NewSource(SourceConfig{
		ID: "hyb-src", Metric: metric.ValueDeviation,
		Bandwidth: srcBW, Tick: 10 * time.Millisecond,
		Policy: PolicyHybrid,
		Hybrid: HybridConfig{Promote: 0.5, Demote: 0.05, Gain: 0.5, MigrateEvery: 100 * time.Millisecond},
	}, conn)
	defer src.Close()

	// Skewed workload: a hot head the controller should promote, a cold
	// tail it should leave to the poll half.
	values := make([]float64, objects)
	for i := 0; i < objects; i++ {
		values[i] = 1
		src.Update(fmt.Sprintf("hyb-src/obj-%d", i), values[i])
	}
	deadline := time.Now().Add(1500 * time.Millisecond)
	step := 0
	for time.Now().Before(deadline) {
		i := step % hot
		if step%301 == 0 { // occasional cold-tail update keeps λ̂ alive
			i = hot + step%(objects-hot)
		}
		values[i]++
		src.Update(fmt.Sprintf("hyb-src/obj-%d", i), values[i])
		step++
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond) // drain in-flight polls and pushes

	st := src.Stats()
	elapsed := time.Since(start).Seconds()
	h := st.Hybrid
	if h == nil {
		t.Fatal("hybrid source reports no HybridStats")
	}
	cs := cache.Stats()
	pushes := st.Refreshes - h.PolledItems
	discovery := cs.PollReplies - h.PolledItems
	if pushes <= 0 {
		t.Errorf("push half idle: refreshes=%d polled=%d", st.Refreshes, h.PolledItems)
	}
	if h.PolledItems <= 0 {
		t.Errorf("poll half delivered nothing: %+v", h)
	}
	if h.Promotions == 0 {
		t.Errorf("migration controller never promoted: %+v", h)
	}
	if discovery < 0 {
		t.Fatalf("discovery listings negative: cache replies=%d, source polled items=%d",
			cs.PollReplies, h.PolledItems)
	}
	spend := float64(pushes) + 2*float64(h.PolledItems) + float64(discovery)
	// The bucket itself allows bandwidth × elapsed plus one tick's burst;
	// the 10% margin absorbs timer jitter between our clock and the loops'.
	limit := srcBW*elapsed*1.10 + tokenBurst(srcBW, 10*time.Millisecond)
	if spend > limit {
		t.Errorf("hybrid spend %.0f msgs exceeds the shared bucket's %.0f (pushes=%d polled=%d discovery=%d over %.2fs)",
			spend, limit, pushes, h.PolledItems, discovery, elapsed)
	}
}

// pollFrameConn is a frameConn that can be polled (transport.PollConn), for
// driving a hybrid destination by hand: no poll ever arrives and replies are
// dropped.
type pollFrameConn struct {
	*frameConn
	polls chan wire.Poll
}

func newPollFrameConn(id string) *pollFrameConn {
	return &pollFrameConn{frameConn: newFrameConn(id), polls: make(chan wire.Poll)}
}

func (c *pollFrameConn) Polls() <-chan wire.Poll        { return c.polls }
func (c *pollFrameConn) SendReply(wire.PollReply) error { return nil }

// TestHybridRedialCatchesUpPushSetOnly: a hybrid destination that redials lags
// on every object, but its catch-up re-sends only the push set. A poll-set
// object — here one a poll answer committed — is left to the cache's polls,
// so the catch-up spends no token on it.
func TestHybridRedialCatchesUpPushSetOnly(t *testing.T) {
	clock := newFakeClock()
	conn, conn2 := newPollFrameConn("c1"), newPollFrameConn("c1")
	src, err := NewFanoutSource(SourceConfig{
		ID: "hs", Metric: metric.ValueDeviation, Bandwidth: 1e9, Tick: time.Hour, Now: clock.Now,
		Params: pinnedParams(1e-6), Policy: PolicyHybrid, Hybrid: HybridConfig{MigrateEvery: time.Hour},
	}, []Destination{{CacheID: "c1", Conn: conn, Redial: func() (transport.SourceConn, error) { return conn2, nil }}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	ss := src.sessions[0]
	clock.advance(time.Second)
	src.Update("hs/hot", 5)
	src.Update("hs/cold", 7)

	// Promote hs/hot as a migration pass would, and commit hs/cold as the
	// answer to a poll.
	src.mu.Lock()
	g, now := ss.group, src.now()
	hot, _ := src.objLocked("hs/hot")
	g.hyb.ensure(int(hot.key)).pushed = true
	g.hyb.pushCount++
	g.requeue(hot, now)
	cold, _ := src.objLocked("hs/cold")
	g.commitPolledLocked(wire.PollItem{ObjectID: "hs/cold", Exists: true, Value: 7, Version: cold.version}, now, now)
	src.mu.Unlock()

	passWith(ss, 10)
	if got := holds(conn.frameConn); len(got) != 1 || got["hs/hot"] != 5 {
		t.Fatalf("before the redial the cache was pushed %v, want hs/hot=5 only", got)
	}
	conn.Close()
	waitFor(t, 5*time.Second, func() bool { return src.Stats().Sessions[0].Reconnects == 1 }, "the destination to redial")
	if p := src.Stats().Sessions[0].Pending; p != 2 {
		t.Fatalf("after the redial pending = %d, want 2 (it lags on both objects)", p)
	}
	if left := passWith(ss, 10); left != 9 {
		t.Errorf("the catch-up left %v tokens of 10, want 9 (one push-set refresh)", left)
	}
	if got := holds(conn2.frameConn); len(got) != 1 || got["hs/hot"] != 5 {
		t.Errorf("the catch-up sent %v, want hs/hot=5 only", got)
	}
	if p := src.Stats().Sessions[0].Pending; p != 0 {
		t.Errorf("after the catch-up pending = %d, want 0", p)
	}
}
