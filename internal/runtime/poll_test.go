package runtime

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bestsync/internal/metric"
	"bestsync/internal/transport"
	"bestsync/internal/wire"
)

// pollHarness is one cache-driven source↔cache pairing on either transport.
type pollHarness struct {
	cache   *Cache
	src     *Source
	cleanup func()
}

func newPollHarness(t *testing.T, tcp bool, policy Policy, objects int) *pollHarness {
	t.Helper()
	cacheCfg := CacheConfig{
		ID:        "poll-cache",
		Bandwidth: 4000,
		Tick:      10 * time.Millisecond,
		Policy:    policy,
		Poll: PollConfig{
			ReSolveEvery: 250 * time.Millisecond,
			Seed:         1,
			TrueRate:     func(string) float64 { return 5 },
		},
	}
	srcCfg := SourceConfig{
		ID:        "poll-src",
		Metric:    metric.ValueDeviation,
		Bandwidth: 4000,
		Tick:      10 * time.Millisecond,
		Policy:    policy,
	}
	var (
		ep      transport.CacheEndpoint
		conn    transport.SourceConn
		cleanup func()
	)
	if tcp {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ep = transport.Serve(ln, 64)
		conn, err = transport.Dial(ln.Addr().String(), srcCfg.ID)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		local := transport.NewLocal(64)
		ep = local
		var err error
		conn, err = local.Dial(srcCfg.ID)
		if err != nil {
			t.Fatal(err)
		}
	}
	cache := NewCache(cacheCfg, ep)
	src := NewSource(srcCfg, conn)
	cleanup = func() {
		src.Close()
		cache.Close()
		ep.Close()
	}
	return &pollHarness{cache: cache, src: src, cleanup: cleanup}
}

// runPollWorkload updates the objects continuously for the window, then
// waits for one more poll cycle so the final values are observable.
func (h *pollHarness) runPollWorkload(objects int, window time.Duration) []float64 {
	values := make([]float64, objects)
	deadline := time.Now().Add(window)
	step := 0
	for time.Now().Before(deadline) {
		i := step % objects
		values[i] += 1
		h.src.Update(fmt.Sprintf("poll-src/obj-%d", i), values[i])
		step++
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(400 * time.Millisecond) // ≥ one poll period + apply drain
	return values
}

func testPollPolicy(t *testing.T, tcp bool, policy Policy) {
	const objects = 16
	h := newPollHarness(t, tcp, policy, objects)
	defer h.cleanup()

	values := h.runPollWorkload(objects, 1200*time.Millisecond)

	for i, want := range values {
		id := fmt.Sprintf("poll-src/obj-%d", i)
		e, ok := h.cache.Get(id)
		if !ok {
			t.Fatalf("%v: object %s never reached the cache", policy, id)
		}
		if e.Value != want {
			t.Errorf("%v: object %s = %v, want %v (one poll period behind is a test bug, not a protocol one)",
				policy, id, e.Value, want)
		}
	}

	cs := h.cache.Stats()
	if cs.Polls == 0 {
		t.Errorf("%v: cache sent no polls", policy)
	}
	if cs.PollReplies == 0 {
		t.Errorf("%v: cache received no poll replies", policy)
	}
	if cs.Resolves == 0 {
		t.Errorf("%v: allocation never re-solved", policy)
	}
	if cs.Refreshes == 0 {
		t.Errorf("%v: no values installed", policy)
	}
	if cs.Feedbacks != 0 {
		t.Errorf("%v: cache sent %d feedback messages; cache-driven policies must send none", policy, cs.Feedbacks)
	}

	st := h.src.Stats()
	if st.Policy != policy.String() {
		t.Errorf("source policy = %q, want %q", st.Policy, policy)
	}
	if st.PollsAnswered == 0 {
		t.Errorf("%v: source answered no polls", policy)
	}
	if st.Refreshes == 0 {
		t.Errorf("%v: source delivered no reply items", policy)
	}
}

func TestPollModeLocal(t *testing.T) {
	for _, policy := range []Policy{PolicyIdeal, PolicyCGM1, PolicyCGM2} {
		t.Run(policy.String(), func(t *testing.T) { testPollPolicy(t, false, policy) })
	}
}

func TestPollModeTCP(t *testing.T) {
	testPollPolicy(t, true, PolicyCGM1)
}

// pollRoundTrip is a CGM1 cache polling one Source over loopback TCP. The
// source dials advertising wire.CapPeer, so the cache's targeted polls carry
// known-version hints, and the source omits the objects they prove current:
// a round trip exercises every control-frame decode and release of the poll
// path — the discovery listing, hinted polls, and replies.
type pollRoundTrip struct {
	cache *Cache
	src   *Source
	ids   []string
	round int
}

func newPollRoundTrip(t *testing.T, objects int) *pollRoundTrip {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep := transport.Serve(ln, 64)
	transport.SetDialCapabilities(wire.CapPeer)
	conn, err := transport.Dial(ln.Addr().String(), "rt-src")
	transport.SetDialCapabilities(0)
	if err != nil {
		ep.Close()
		t.Fatal(err)
	}
	rt := &pollRoundTrip{src: NewSource(SourceConfig{
		ID: "rt-src", Metric: metric.ValueDeviation, Bandwidth: 1e6,
		Tick: 10 * time.Millisecond, Policy: PolicyCGM1,
	}, conn)}
	for i := 0; i < objects; i++ {
		rt.ids = append(rt.ids, fmt.Sprintf("rt-src/obj-%02d", i))
		rt.src.Update(rt.ids[i], 0)
	}
	// The source holds every object before the cache's first tick sends the
	// discovery poll, and no re-solve (which re-discovers) runs after it.
	rt.cache = NewCache(CacheConfig{
		ID: "rt-cache", Bandwidth: 4000, Tick: 10 * time.Millisecond, Policy: PolicyCGM1,
		Poll: PollConfig{ReSolveEvery: time.Hour, Seed: 1},
	}, ep)
	t.Cleanup(func() {
		rt.src.Close()
		rt.cache.Close()
		ep.Close()
	})
	return rt
}

// next updates every object at the source and waits until the cache holds
// the new values.
func (rt *pollRoundTrip) next(t *testing.T) {
	rt.round++
	want := float64(rt.round)
	for _, id := range rt.ids {
		rt.src.Update(id, want)
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, id := range rt.ids {
		for {
			if e, ok := rt.cache.Get(id); ok && e.Value == want {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %s never reached the cache", rt.round, id)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// answered reports how many polls the source has answered.
func (rt *pollRoundTrip) answered() int {
	rt.src.mu.Lock()
	defer rt.src.mu.Unlock()
	return rt.src.sessions[0].pollsAnswered
}

// TestPollRoundTripTCP: rounds of updates reach a polling cache over TCP
// through hinted polls and their replies, each control frame released by its
// consumer. Under -race a slice released twice reaches two decoders at once
// and shows as a race.
func TestPollRoundTripTCP(t *testing.T) {
	rt := newPollRoundTrip(t, 32)
	for i := 0; i < 5; i++ {
		rt.next(t)
	}
	// Unchanged objects polled again are omitted on the strength of the
	// hints.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		rt.src.mu.Lock()
		omits := rt.src.sessions[0].pollOmits
		rt.src.mu.Unlock()
		if omits > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the source omitted no item: the polls carried no known-version hints")
		}
	}
}

// pollCounter is a Local endpoint that counts the polls the cache sends
// through it: discovery polls, and the objects named by targeted ones.
type pollCounter struct {
	*transport.Local
	discoveries, targeted atomic.Int64
}

func (e *pollCounter) SendPoll(sourceID string, p wire.Poll) error {
	if err := e.Local.SendPoll(sourceID, p); err != nil {
		return err
	}
	if len(p.ObjectIDs) == 0 {
		e.discoveries.Add(1)
	} else {
		e.targeted.Add(int64(len(p.ObjectIDs)))
	}
	return nil
}

// TestPollBudgetConservation: a polling cache keeps its message budget. With
// a tight cache Bandwidth and a source that could answer far more, the polls
// the cache sends, charged as spec §9 charges them — two messages per
// targeted object, the request plus its listing per discovery — stay within
// Bandwidth × elapsed plus one bucket's burst.
func TestPollBudgetConservation(t *testing.T) {
	for _, policy := range []Policy{PolicyCGM1, PolicyCGM2} {
		t.Run(policy.String(), func(t *testing.T) {
			const (
				budget  = 40.0
				objects = 32
				tick    = 10 * time.Millisecond
			)
			ep := &pollCounter{Local: transport.NewLocal(64)}
			defer ep.Close()
			start := time.Now()
			cache := NewCache(CacheConfig{
				ID: "budget-cache", Bandwidth: budget, Tick: tick, Policy: policy,
				Poll: PollConfig{ReSolveEvery: 300 * time.Millisecond, Seed: 1},
			}, ep)
			conn, err := ep.Dial("budget-src")
			if err != nil {
				t.Fatal(err)
			}
			src := NewSource(SourceConfig{
				ID: "budget-src", Metric: metric.ValueDeviation,
				Bandwidth: 4000, Tick: tick, Policy: policy,
			}, conn)
			defer src.Close()

			for step := 0; time.Since(start) < 1500*time.Millisecond; step++ {
				src.Update(fmt.Sprintf("budget-src/obj-%d", step%objects), float64(step))
				time.Sleep(2 * time.Millisecond)
			}
			cache.Close()
			elapsed := time.Since(start).Seconds()

			targeted, discoveries := ep.targeted.Load(), ep.discoveries.Load()
			if targeted == 0 || discoveries == 0 {
				t.Fatalf("cache never polled: %d targeted, %d discoveries", targeted, discoveries)
			}
			spend := 2*float64(targeted) + 2*float64(discoveries)
			// The 10% margin absorbs timer jitter between this clock and
			// the dispatcher's ticks.
			limit := budget*elapsed*1.10 + tokenBurst(budget, tick)
			if spend > limit {
				t.Errorf("cache spent %.0f msgs, budget allows %.0f (%d targeted, %d discoveries over %.2fs)",
					spend, limit, targeted, discoveries, elapsed)
			}
		})
	}
}

// TestPollPolicyRequiresPollConn pins the construction-time validation: a
// cache-driven source must reject connections that cannot carry polls.
func TestPollPolicyRequiresPollConn(t *testing.T) {
	fc := newFakeConn()
	_, err := NewFanoutSource(SourceConfig{
		ID: "s", Policy: PolicyCGM1, Bandwidth: 10,
	}, []Destination{{Conn: fc}})
	if err == nil {
		t.Fatal("poll-less connection accepted under a cache-driven policy")
	}
}

// TestParsePolicy pins the -mode flag grammar.
func TestParsePolicy(t *testing.T) {
	cases := map[string]Policy{
		"push": PolicyPush, "": PolicyPush,
		"poll": PolicyIdeal, "ideal": PolicyIdeal, "IDEAL": PolicyIdeal,
		"cgm1": PolicyCGM1, "CGM2": PolicyCGM2,
	}
	for in, want := range cases {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("gossip"); err == nil {
		t.Error("unknown policy accepted")
	}
	if PolicyCGM1.MessageCost() != 2 || PolicyIdeal.MessageCost() != 1 || PolicyPush.MessageCost() != 1 {
		t.Error("message costs drifted from the §6.3 model")
	}
}

// pollStub is a poll endpoint nobody is connected to: a test feeds pushed
// batches and poll replies straight into its channels, and polls go nowhere.
type pollStub struct {
	stubEndpoint
	replies chan wire.PollReply
}

func (pollStub) SendPoll(string, wire.Poll) error { return nil }
func (e pollStub) Replies() <-chan wire.PollReply { return e.replies }

// TestApplyHooksRunOneAtATime: a polling cache fed pushed batches and poll
// replies at once runs its OnApply hook one call at a time, and reports each
// object's origin-axis versions in apply order — never backwards — however
// the two streams interleave.
func TestApplyHooksRunOneAtATime(t *testing.T) {
	const objects, rounds = 8, 200
	var inside, calls atomic.Int32
	var mu sync.Mutex // guards last, so an overlap is reported, not a crash
	last := map[string]uint64{}
	ep := pollStub{stubEndpoint{batches: make(chan transport.InboundBatch)}, make(chan wire.PollReply)}
	c := NewCache(CacheConfig{
		ID: "leaf", Bandwidth: 1e9, Tick: time.Millisecond, Policy: PolicyCGM1,
		OnApply: func(rs []wire.Refresh) {
			if inside.Add(1) != 1 {
				t.Error("OnApply entered while another call was running")
			}
			calls.Add(1)
			mu.Lock()
			for _, r := range rs {
				if _, v := r.OriginAxis(); v > last[r.ObjectID] {
					last[r.ObjectID] = v
				} else {
					t.Errorf("%s reported at origin version %d after %d", r.ObjectID, v, last[r.ObjectID])
				}
			}
			mu.Unlock()
			time.Sleep(10 * time.Microsecond) // widen the window a second call would land in
			inside.Add(-1)
		},
	}, ep)
	defer c.Close()

	// Both streams carry values of origin "root" through two relays: pushed
	// ones at even origin versions, polled ones at odd, so every round of
	// each overtakes the other's previous one.
	id := func(i int) string { return fmt.Sprintf("root/o%d", i) }
	var feeders sync.WaitGroup
	feeders.Add(2)
	go func() {
		defer feeders.Done()
		for v := uint64(1); v <= rounds; v++ {
			rs := make([]wire.Refresh, objects)
			for i := range rs {
				rs[i] = wire.Refresh{SourceID: "relay-a", ObjectID: id(i), Origin: "root", Hops: 1, Via: []string{"relay-a"},
					OriginEpoch: 50, OriginVersion: 2 * v, Value: float64(2 * v), Version: v, Epoch: 1}
			}
			ep.batches <- transport.InboundBatch{RefreshBatch: wire.RefreshBatch{Refreshes: rs}}
		}
	}()
	go func() {
		defer feeders.Done()
		for v := uint64(1); v <= rounds; v++ {
			items := make([]wire.PollItem, objects)
			for i := range items {
				items[i] = wire.PollItem{ObjectID: id(i), Exists: true, Origin: "root", Hops: 1, Via: []string{"relay-b"},
					OriginEpoch: 50, OriginVersion: 2*v + 1, Value: float64(2*v + 1), Version: v, Epoch: 1}
			}
			ep.replies <- wire.PollReply{SourceID: "relay-b", Items: items}
		}
	}()
	feeders.Wait()
	waitFor(t, 5*time.Second, func() bool {
		for i := range objects {
			if e, ok := c.Get(id(i)); !ok || e.OriginVersion != 2*rounds+1 {
				return false
			}
		}
		return true
	}, "the last poll reply to be applied")
	if n := calls.Load(); n < 2 {
		t.Fatalf("OnApply ran %d times, want a call per applied batch", n)
	}
}
