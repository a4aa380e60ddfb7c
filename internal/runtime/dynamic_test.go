package runtime

import (
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"bestsync/internal/core"
	"bestsync/internal/metric"
	"bestsync/internal/transport"
	"bestsync/internal/wire"
)

// TestAddDestinationSyncsExistingObjects: a destination added at runtime is
// fully synchronized from the canonical state (every existing object is
// re-registered as never-sent) and the send budget is re-divided across
// the enlarged session set.
func TestAddDestinationSyncsExistingObjects(t *testing.T) {
	conn1 := newFakeConn()
	clock := newFakeClock()
	src, ss1 := newTestSession(t, conn1, clock)

	clock.advance(time.Second)
	src.Update("a", 10)
	src.Update("b", 20)
	passWith(ss1, 2)
	if got := len(conn1.sentMsgs()); got != 2 {
		t.Fatalf("pre-add refreshes = %d, want 2", got)
	}
	if got := src.Stats().Sessions[0].Share; got != 1000 {
		t.Fatalf("single session share = %v, want the full 1000", got)
	}

	conn2 := newFakeConn()
	if err := src.AddDestination(Destination{CacheID: "c2", Conn: conn2}); err != nil {
		t.Fatal(err)
	}
	st := src.Stats()
	if len(st.Sessions) != 2 {
		t.Fatalf("sessions = %d after add, want 2", len(st.Sessions))
	}
	for i, sess := range st.Sessions {
		if math.Abs(sess.Share-500) > 1e-9 {
			t.Errorf("session %d share = %v after add, want 500 (re-divided)", i, sess.Share)
		}
	}
	// The new session owes the cache everything that already exists.
	if p := st.Sessions[1].Pending; p != 2 {
		t.Fatalf("new session pending = %d, want 2 (full re-sync)", p)
	}
	src.mu.Lock()
	ss2 := src.sessions[1]
	src.mu.Unlock()
	passWith(ss2, 2)
	sent := conn2.sentMsgs()
	if len(sent) != 2 {
		t.Fatalf("new destination received %d refreshes, want both objects", len(sent))
	}
	byID := map[string]float64{}
	for _, r := range sent {
		byID[r.ObjectID] = r.Value
	}
	if byID["a"] != 10 || byID["b"] != 20 {
		t.Errorf("new destination received %v, want a=10 b=20", byID)
	}

	// Duplicate labels are rejected (RemoveDestination is keyed by them).
	if err := src.AddDestination(Destination{CacheID: "c2", Conn: newFakeConn()}); err == nil {
		t.Error("duplicate CacheID accepted")
	}
}

// TestRemoveDestinationRedividesBandwidth: removing a destination stops its
// session, closes its connection, and hands its share to the survivors,
// whose scheduling state is untouched.
func TestRemoveDestinationRedividesBandwidth(t *testing.T) {
	conns := []*fakeConn{newFakeConn(), newFakeConn()}
	clock := newFakeClock()
	params := core.DefaultParams(1, 1000)
	params.DisableBeta = true
	src, err := NewFanoutSource(SourceConfig{
		ID: "s1", Metric: metric.ValueDeviation, Bandwidth: 1000,
		Tick: time.Hour, Params: params, Now: clock.Now,
	}, []Destination{
		{CacheID: "c0", Conn: conns[0]},
		{CacheID: "c1", Conn: conns[1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	clock.advance(time.Second)
	src.Update("x", 7)

	if err := src.RemoveDestination("nope"); err == nil {
		t.Error("unknown destination removal succeeded")
	}
	if err := src.RemoveDestination("c0"); err != nil {
		t.Fatal(err)
	}
	st := src.Stats()
	if len(st.Sessions) != 1 || st.Sessions[0].CacheID != "c1" {
		t.Fatalf("sessions after remove = %+v, want only c1", st.Sessions)
	}
	if got := st.Sessions[0].Share; got != 1000 {
		t.Errorf("survivor share = %v, want the full 1000", got)
	}
	if p := st.Sessions[0].Pending; p != 1 {
		t.Errorf("survivor pending = %d, want its scheduled object untouched", p)
	}
	conns[0].mu.Lock()
	closed := conns[0].closed
	conns[0].mu.Unlock()
	if !closed {
		t.Error("removed destination's connection left open")
	}
	// The survivor still works: a pass delivers the pending refresh.
	src.mu.Lock()
	ss := src.sessions[0]
	src.mu.Unlock()
	passWith(ss, 1)
	if got := len(conns[1].sentMsgs()); got != 1 {
		t.Errorf("survivor received %d refreshes after the removal, want 1", got)
	}
}

// TestEndedSessionExcludedFromAggregates: a session whose feedback channel
// closes with no Redial hook ends; it must be flagged, its share re-divided
// to the survivors, and the aggregate threshold mean must ignore it —
// previously a dead session counted forever and skewed the mean.
func TestEndedSessionExcludedFromAggregates(t *testing.T) {
	conns := []*fakeConn{newFakeConn(), newFakeConn()}
	clock := newFakeClock()
	params := core.DefaultParams(1, 1000)
	params.DisableBeta = true
	src, err := NewFanoutSource(SourceConfig{
		ID: "s1", Metric: metric.ValueDeviation, Bandwidth: 800,
		Tick: time.Hour, Params: params, Now: clock.Now,
	}, []Destination{
		{CacheID: "dead", Conn: conns[0]},
		{CacheID: "live", Conn: conns[1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	// Drive the live session's threshold away from the dead one's so the
	// mean would visibly skew if the dead threshold still counted.
	src.mu.Lock()
	liveSS := src.sessions[1]
	src.mu.Unlock()
	liveSS.onFeedback(wire.Feedback{CacheID: "live-cache"})
	liveSS.onFeedback(wire.Feedback{CacheID: "live-cache"})

	conns[0].Close() // feedback channel closes; no Redial → session ends
	waitFor(t, 2*time.Second, func() bool {
		return src.Stats().Sessions[0].Ended
	}, "session to end")

	st := src.Stats()
	if !st.Sessions[0].Ended || st.Sessions[1].Ended {
		t.Fatalf("ended flags = %v/%v, want true/false", st.Sessions[0].Ended, st.Sessions[1].Ended)
	}
	if got := st.Sessions[0].Share; got != 0 {
		t.Errorf("dead session share = %v, want 0", got)
	}
	if got := st.Sessions[1].Share; got != 800 {
		t.Errorf("survivor share = %v, want the full 800", got)
	}
	// The aggregate threshold must be exactly the live session's, not the
	// two-session mean.
	if want := st.Sessions[1].Threshold; math.Abs(st.Threshold-want) > 1e-12 {
		t.Errorf("aggregate threshold = %v, want the live session's %v (dead one excluded)",
			st.Threshold, want)
	}
}

// TestRemoveDestinationPrefersLiveOverEndedGhost: AddDestination may reuse
// the label of an ended session, leaving a dead ghost with the same
// CacheID at a lower index. RemoveDestination must remove the LIVE
// session, not report success after detaching the ghost.
func TestRemoveDestinationPrefersLiveOverEndedGhost(t *testing.T) {
	conns := []*fakeConn{newFakeConn(), newFakeConn()}
	clock := newFakeClock()
	params := core.DefaultParams(1, 1000)
	params.DisableBeta = true
	src, err := NewFanoutSource(SourceConfig{
		ID: "s1", Metric: metric.ValueDeviation, Bandwidth: 600,
		Tick: time.Hour, Params: params, Now: clock.Now,
	}, []Destination{
		{CacheID: "c", Conn: conns[0]},
		{CacheID: "other", Conn: conns[1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	conns[0].Close() // "c" ends (no Redial)
	waitFor(t, 2*time.Second, func() bool {
		return src.Stats().Sessions[0].Ended
	}, "first session to end")
	replacement := newFakeConn()
	if err := src.AddDestination(Destination{CacheID: "c", Conn: replacement}); err != nil {
		t.Fatalf("re-using an ended session's label: %v", err)
	}
	if err := src.RemoveDestination("c"); err != nil {
		t.Fatal(err)
	}
	replacement.mu.Lock()
	closed := replacement.closed
	replacement.mu.Unlock()
	if !closed {
		t.Error("live replacement session survived RemoveDestination (the ended ghost was matched instead)")
	}
	for _, sess := range src.Stats().Sessions {
		if sess.CacheID == "c" && !sess.Ended {
			t.Errorf("live session %q still present after removal", sess.CacheID)
		}
	}
}

// TestRelayTotalBandwidthNormalizesFaces: explicitly configured face
// budgets that do not sum to TotalBandwidth are kept as a ratio and
// normalized, so the first rebalance pass cannot snap the aggregate to a
// different total mid-run.
func TestRelayTotalBandwidthNormalizesFaces(t *testing.T) {
	cases := []struct {
		name           string
		cacheBW, child float64
		wantUp, wantDn float64
	}{
		{"both unset", 0, 0, 60, 60},
		{"both set, wrong sum", 100, 100, 60, 60},
		{"ratio preserved", 90, 30, 90, 30},
		{"one set", 0, 40, 80, 40},
		{"one set over total", 0, 500, 60, 60},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			local := transport.NewLocal(4)
			child := transport.NewLocal(4)
			conn, err := child.Dial("r")
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewNode(NodeConfig{
				ID:             "r",
				Intake:         CacheConfig{Bandwidth: tc.cacheBW},
				PeerBandwidth:  tc.child,
				TotalBandwidth: 120,
			}, local, []Destination{{Conn: conn}})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				r.Close()
				local.Close()
				child.Close()
			}()
			st := r.Stats()
			if math.Abs(st.IntakeBandwidth-tc.wantUp) > 1e-9 || math.Abs(st.PeerBandwidth-tc.wantDn) > 1e-9 {
				t.Errorf("faces = %.1f/%.1f, want %.1f/%.1f (sum must be the 120 total)",
					st.IntakeBandwidth, st.PeerBandwidth, tc.wantUp, tc.wantDn)
			}
		})
	}
}

// TestRelayFaceRebalanceCountsGroupQueue: a relay whose peers share a group
// reports the group's queue as peer-face backlog. Its one member is caught
// up, so the member's Pending is zero, while the queue holds every object the
// starved budget cannot send; with the intake idle, the face rebalancer must
// move the shared budget to the peer face. Counted by member Pending alone,
// the peer face read idle and the split stayed half and half.
func TestRelayFaceRebalanceCountsGroupQueue(t *testing.T) {
	intake := transport.NewLocal(4)
	defer intake.Close()
	node, err := NewNode(NodeConfig{
		ID: "relay", TotalBandwidth: 0.01, Rebalance: time.Millisecond,
		Metric: metric.ValueDeviation, Group: GroupConfig{Enabled: true},
	}, intake, []Destination{{CacheID: "leaf", Conn: sinkConn{}}})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	for i := range 10 {
		node.Source().Update(fmt.Sprintf("up/o%d", i), 1)
	}
	if st := node.Stats().Peers; st.Group == nil || st.Group.Pending != 10 || st.Sessions[0].Pending != 0 {
		t.Fatalf("peer face: group %+v, member pending %d; want 10 queued and a caught-up member", st.Group, st.Sessions[0].Pending)
	}
	waitFor(t, 5*time.Second, func() bool {
		st := node.Stats()
		return st.FaceRebalances >= 3 && st.PeerBandwidth > 2*st.IntakeBandwidth
	}, "the face split to move to the peer face")
}

// TestRebalanceShiftsShareToResponsiveCache: with periodic re-allocation
// enabled, a session that both holds outstanding divergence and keeps
// hearing feedback earns share from one with the same demand but a silent
// cache (the live option-3 contribution score).
func TestRebalanceShiftsShareToResponsiveCache(t *testing.T) {
	conns := []*fakeConn{newFakeConn(), newFakeConn()}
	clock := newFakeClock()
	params := core.DefaultParams(1, 1000)
	params.DisableBeta = true
	src, err := NewFanoutSource(SourceConfig{
		ID: "s1", Metric: metric.ValueDeviation, Bandwidth: 100,
		Tick: time.Hour, Params: params, Now: clock.Now,
		Rebalance: 5 * time.Millisecond,
	}, []Destination{
		{CacheID: "responsive", Conn: conns[0]},
		{CacheID: "silent", Conn: conns[1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	clock.advance(time.Second)
	src.Update("x", 50) // equal outstanding divergence on both sessions
	src.mu.Lock()
	responsive := src.sessions[0]
	src.mu.Unlock()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				responsive.onFeedback(wire.Feedback{CacheID: "r"})
			}
		}
	}()
	waitFor(t, 5*time.Second, func() bool {
		st := src.Stats()
		return st.Rebalances > 3 && st.Sessions[0].Share > st.Sessions[1].Share*1.5
	}, "share to shift toward the responsive session")
	// Shares still sum to the budget: re-weighting moves bandwidth, never
	// mints it.
	st := src.Stats()
	if sum := st.Sessions[0].Share + st.Sessions[1].Share; math.Abs(sum-100) > 1e-6 {
		t.Errorf("shares sum to %v, want the 100 budget", sum)
	}
}

// TestAddRemoveDestinationLocalIntegration runs the live churn sequence on
// the in-process transport with real ticking sessions: start with one
// cache, add a second mid-stream, remove the first, and verify every
// refresh the survivors needed arrived (no lost refreshes).
func TestAddRemoveDestinationLocalIntegration(t *testing.T) {
	nets := []*transport.Local{transport.NewLocal(64), transport.NewLocal(64)}
	caches := make([]*Cache, 2)
	for i, n := range nets {
		caches[i] = NewCache(CacheConfig{
			ID: fmt.Sprintf("cache-%d", i), Bandwidth: 10000, Tick: 5 * time.Millisecond,
		}, n)
		defer caches[i].Close()
	}
	conn0, err := nets[0].Dial("s1")
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewFanoutSource(SourceConfig{
		ID: "s1", Metric: metric.ValueDeviation,
		Bandwidth: 10000, Tick: 5 * time.Millisecond,
	}, []Destination{{CacheID: "c0", Conn: conn0}})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	src.Update("alpha", 1)
	src.Update("beta", 2)
	waitFor(t, 2*time.Second, func() bool {
		e, ok := caches[0].Get("beta")
		return ok && e.Value == 2
	}, "pre-add values on cache 0")

	conn1, err := nets[1].Dial("s1")
	if err != nil {
		t.Fatal(err)
	}
	if err := src.AddDestination(Destination{CacheID: "c1", Conn: conn1}); err != nil {
		t.Fatal(err)
	}
	// The added cache catches up on the full existing state.
	waitFor(t, 2*time.Second, func() bool {
		a, okA := caches[1].Get("alpha")
		b, okB := caches[1].Get("beta")
		return okA && okB && a.Value == 1 && b.Value == 2
	}, "added cache to receive the full store")

	if err := src.RemoveDestination("c0"); err != nil {
		t.Fatal(err)
	}
	src.Update("alpha", 11)
	src.Update("gamma", 3)
	waitFor(t, 2*time.Second, func() bool {
		a, okA := caches[1].Get("alpha")
		g, okG := caches[1].Get("gamma")
		return okA && okG && a.Value == 11 && g.Value == 3
	}, "survivor to keep receiving after the removal")
	st := src.Stats()
	if len(st.Sessions) != 1 || st.Sessions[0].CacheID != "c1" {
		t.Fatalf("sessions = %+v, want only c1", st.Sessions)
	}
	if st.Sessions[0].Share != 10000 {
		t.Errorf("survivor share = %v, want the full budget", st.Sessions[0].Share)
	}
	// The removed cache saw nothing after its removal.
	if _, ok := caches[0].Get("gamma"); ok {
		t.Error("removed cache received post-removal refreshes")
	}
}

// TestAddRemoveDestinationTCPIntegration is the same churn sequence over
// the real TCP transport: live re-division of the budget with real
// listeners, framing and feedback.
func TestAddRemoveDestinationTCPIntegration(t *testing.T) {
	const n = 2
	caches := make([]*Cache, n)
	eps := make([]transport.CacheEndpoint, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = transport.Serve(ln, 64)
		caches[i] = NewCache(CacheConfig{
			ID: fmt.Sprintf("tcp-dyn-%d", i), Bandwidth: 10000, Tick: 5 * time.Millisecond,
		}, eps[i])
		addrs[i] = ln.Addr().String()
		defer func(i int) {
			caches[i].Close()
			eps[i].Close()
		}(i)
	}

	conn0, err := transport.Dial(addrs[0], "agent-dyn")
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewFanoutSource(SourceConfig{
		ID: "agent-dyn", Metric: metric.ValueDeviation,
		Bandwidth: 2000, Tick: 5 * time.Millisecond,
	}, []Destination{{CacheID: addrs[0], Conn: conn0}})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	for k := 0; k < 4; k++ {
		src.Update(fmt.Sprintf("agent-dyn/obj-%d", k), float64(10+k))
	}
	waitFor(t, 5*time.Second, func() bool {
		e, ok := caches[0].Get("agent-dyn/obj-3")
		return ok && e.Value == 13
	}, "cache 0 to sync before the add")

	conn1, err := transport.Dial(addrs[1], "agent-dyn")
	if err != nil {
		t.Fatal(err)
	}
	if err := src.AddDestination(Destination{CacheID: addrs[1], Conn: conn1}); err != nil {
		t.Fatal(err)
	}
	st := src.Stats()
	for i, sess := range st.Sessions {
		if math.Abs(sess.Share-1000) > 1e-9 {
			t.Errorf("session %d share = %v after add, want 1000", i, sess.Share)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		for k := 0; k < 4; k++ {
			e, ok := caches[1].Get(fmt.Sprintf("agent-dyn/obj-%d", k))
			if !ok || e.Value != float64(10+k) {
				return false
			}
		}
		return true
	}, "added TCP cache to receive the full store")

	if err := src.RemoveDestination(addrs[0]); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		src.Update(fmt.Sprintf("agent-dyn/obj-%d", k), float64(20+k))
	}
	waitFor(t, 5*time.Second, func() bool {
		for k := 0; k < 4; k++ {
			e, ok := caches[1].Get(fmt.Sprintf("agent-dyn/obj-%d", k))
			if !ok || e.Value != float64(20+k) {
				return false
			}
		}
		return true
	}, "survivor to converge on post-removal values (no lost refreshes)")
	if got := src.Stats().Sessions; len(got) != 1 || got[0].Share != 2000 {
		t.Errorf("sessions after removal = %+v, want one at the full 2000", got)
	}
}

// TestRateUpdateVsFlushRace hammers every share-moving path — SetBandwidth,
// AddDestination/RemoveDestination and the periodic rebalance pass —
// against the live flusher's passes over groups of one under load. Run with
// -race; correctness here is "no data race and a clean shutdown".
func TestRateUpdateVsFlushRace(t *testing.T) {
	local := transport.NewLocal(64)
	cache := NewCache(CacheConfig{Bandwidth: 100000, Tick: time.Millisecond}, local)
	defer cache.Close()
	conn, err := local.Dial("s1")
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewFanoutSource(SourceConfig{
		ID: "s1", Metric: metric.ValueDeviation, Bandwidth: 5000,
		Tick: time.Millisecond, Rebalance: 2 * time.Millisecond,
	}, []Destination{{CacheID: "c0", Conn: conn}})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() { // updater
		defer wg.Done()
		v := 0.0
		for {
			select {
			case <-stop:
				return
			default:
			}
			v++
			for k := 0; k < 4; k++ {
				src.Update(fmt.Sprintf("obj-%d", k), v)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	go func() { // bandwidth mover
		defer wg.Done()
		bws := []float64{1000, 8000, 3000}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			src.SetBandwidth(bws[i%len(bws)])
			time.Sleep(time.Millisecond)
		}
	}()
	// Topology churn on the same source, from the test goroutine.
	for i := 0; i < 10; i++ {
		c, err := local.Dial(fmt.Sprintf("tmp-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("churn-%d", i)
		if err := src.AddDestination(Destination{CacheID: id, Conn: c}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
		if err := src.RemoveDestination(id); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := src.Close(); err != nil {
		t.Fatalf("close after churn: %v", err)
	}
}

// TestRedialVsReallocationRace races session redials (connections killed
// repeatedly, redial closures re-dialing) against destination add/remove
// and the rebalance pass. Run with -race.
func TestRedialVsReallocationRace(t *testing.T) {
	local := transport.NewLocal(64)
	cache := NewCache(CacheConfig{Bandwidth: 100000, Tick: time.Millisecond}, local)
	defer cache.Close()

	dial := func(id string) transport.SourceConn {
		c, err := local.Dial(id)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	mkDest := func(id string) Destination {
		return Destination{
			CacheID: id,
			Conn:    dial(id),
			Redial: func() (transport.SourceConn, error) {
				return local.Dial(id)
			},
		}
	}
	src, err := NewFanoutSource(SourceConfig{
		ID: "flap", Metric: metric.ValueDeviation, Bandwidth: 5000,
		Tick: time.Millisecond, Rebalance: 2 * time.Millisecond,
	}, []Destination{mkDest("flap"), mkDest("flap-2")})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // updater keeps demand flowing
		defer wg.Done()
		v := 0.0
		for {
			select {
			case <-stop:
				return
			default:
			}
			v++
			src.Update("x", v)
			time.Sleep(200 * time.Microsecond)
		}
	}()
	go func() { // connection killer forces redials
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			src.mu.Lock()
			var conn transport.SourceConn
			if len(src.sessions) > 0 {
				conn = src.sessions[i%len(src.sessions)].dest.Conn
			}
			src.mu.Unlock()
			if conn != nil {
				conn.Close()
			}
			time.Sleep(3 * time.Millisecond)
		}
	}()
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("flap-extra-%d", i)
		if err := src.AddDestination(mkDest(id)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(4 * time.Millisecond)
		if err := src.RemoveDestination(id); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := src.Close(); err != nil {
		t.Fatalf("close after redial churn: %v", err)
	}
}
