package runtime

import (
	"fmt"
	"maps"
	"math/rand"
	stdruntime "runtime"
	"slices"
	"testing"
	"time"

	"bestsync/internal/core"
	"bestsync/internal/metric"
	"bestsync/internal/transport"
	"bestsync/internal/wire"
)

// Stream equivalence: one scripted update stream, driven by hand through
// every push delivery path, must look the same from the receiver. The paths
// share one scheduler (sched), so this is a property of the code; the test is
// the safety net for the parts they do not share — who flushes, when the
// commit happens, how exclusions are applied.

// delivered is one refresh as the receiver sees it.
type delivered struct {
	id      string
	epoch   int64 // origin axis
	version uint64
	value   float64
}

// streamLeg is one delivery path under test. Adding the splice path means
// adding a leg here (it needs retained frames, so a TCP receiver).
type streamLeg struct {
	name  string
	group bool
}

var streamLegs = []streamLeg{
	{name: "session"},
	{name: "group-of-one", group: true},
}

// midSendConn runs a one-shot hook in the middle of the next SendRefresh:
// after the refresh was built, before it is committed. Only the test's own
// goroutine sends on it.
type midSendConn struct {
	transport.SourceConn
	hook func()
}

func (c *midSendConn) SendRefresh(r wire.Refresh) error {
	if h := c.hook; h != nil {
		c.hook = nil
		h()
	}
	return c.SourceConn.SendRefresh(r)
}

// streamRig is one leg's source, its one receiver and the hand that drives
// them: a stepped clock, a Tick no ticker ever reaches, and flushes called
// from the test goroutine.
type streamRig struct {
	leg   streamLeg
	clock *fakeClock
	local *transport.Local
	conn  *midSendConn
	src   *Source
	ss    *syncSession
	// The session leg's bucket, accrued by the rig exactly as the group
	// accrues its own: rate × protocol time elapsed since the last flush.
	budget     tokenBucket
	lastAccrue float64
	got        []delivered
	holds      map[string]delivered
}

func newStreamRig(t *testing.T, leg streamLeg) *streamRig {
	t.Helper()
	r := &streamRig{leg: leg, clock: newFakeClock(), local: transport.NewLocal(4096), holds: map[string]delivered{}}
	conn, err := r.local.Dial("origin")
	if err != nil {
		t.Fatal(err)
	}
	r.conn = &midSendConn{SourceConn: conn}
	params := core.DefaultParams(1, 20)
	params.DisableBeta = true
	r.src, err = NewFanoutSource(SourceConfig{
		ID: "origin", Metric: metric.ValueDeviation, Bandwidth: 20,
		Tick: time.Hour, Params: params, Now: r.clock.Now,
		Group: GroupConfig{Enabled: leg.group},
	}, []Destination{{CacheID: "leaf", Conn: r.conn}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.src.Close(); r.local.Close() })
	r.ss = r.src.sessions[0]
	r.src.mu.Lock()
	r.lastAccrue = r.src.now()
	if r.ss.grouped != leg.group {
		t.Fatalf("session grouped=%v, want %v", r.ss.grouped, leg.group)
	}
	r.src.mu.Unlock()
	return r
}

// flush advances the clock by dt and runs one flush tick by hand, then
// collects what the receiver got.
func (r *streamRig) flush(dt time.Duration) {
	r.clock.advance(dt)
	if r.leg.group {
		r.src.group.pass(0)
		for r.ss.inflight.Load() != 0 {
			stdruntime.Gosched()
		}
	} else {
		r.src.mu.Lock()
		now, rate := r.src.now(), r.ss.rate
		r.src.mu.Unlock()
		r.budget.accrue(rate, now-r.lastAccrue, time.Hour)
		r.lastAccrue = now
		r.budget.tokens = r.ss.flush(r.budget.tokens)
	}
	for {
		select {
		case b := <-r.local.Batches():
			for i := range b.Refreshes {
				ref := &b.Refreshes[i]
				e, v := ref.OriginAxis()
				d := delivered{ref.ObjectID, e, v, ref.Value}
				r.got = append(r.got, d)
				r.holds[d.id] = d
			}
			continue
		default:
		}
		return
	}
}

// sent returns the scheduler's per-object sent-state, by object id.
func (r *streamRig) sent() map[string][2]float64 {
	r.src.mu.Lock()
	defer r.src.mu.Unlock()
	objs := r.ss.objs
	if r.leg.group {
		objs = r.src.group.objs
	}
	out := map[string][2]float64{}
	for o := range r.src.order.all() {
		out[o.id] = [2]float64{objs[o.key].sentVal, float64(objs[o.key].sentVer)}
	}
	return out
}

// runStreamScript plays the script on one leg. With race set, one update
// lands between a refresh being built and its commit on the session path —
// a window the group path, which commits under the lock hold that built the
// refresh, does not have; the group leg applies it right after that flush.
func runStreamScript(t *testing.T, leg streamLeg, race bool) *streamRig {
	r := newStreamRig(t, leg)
	rng := rand.New(rand.NewSource(22))
	const objects = 20
	ids := make([]string, objects)
	vals := make([]float64, objects)
	for i := range ids {
		ids[i] = fmt.Sprintf("obj-%02d", i)
	}
	feedback := func() { r.ss.onFeedback(wire.Feedback{CacheID: "leaf"}) }

	// Contended phase: ~2.5 updates against 2 tokens per step, so objects
	// coalesce, the budget binds and the threshold moves both ways.
	updates := 0
	for step := 0; step < 100; step++ {
		for n := 2 + rng.Intn(2); n > 0; n-- {
			i := rng.Intn(objects)
			vals[i] += float64(rng.Intn(11) - 5)
			r.src.Update(ids[i], vals[i])
			updates++
		}
		if step%5 == 4 {
			feedback()
		}
		if race && step == 99 {
			vals[3] += 40 // over any threshold the script reaches: sent this flush
			r.src.Update(ids[3], vals[3])
			vals[3]++
			racing := func() {
				r.clock.advance(time.Millisecond)
				r.src.Update(ids[3], vals[3])
			}
			if leg.group {
				r.flush(100 * time.Millisecond)
				racing()
				continue
			}
			r.conn.hook = racing
		}
		r.flush(100 * time.Millisecond)
		if r.conn.hook != nil {
			t.Fatal("the racing update never ran: obj-03 was not sent at the last contended step")
		}
	}
	if updates < 200 {
		t.Fatalf("script made %d updates, want at least 200", updates)
	}

	// Quiet phase: no budget pressure (10 s of tokens per round) and feedback
	// every round, so the threshold falls to its floor and everything queued
	// drains in priority order. The two exclusions sit here on purpose. An
	// excluded refresh costs the group a token and an α step for a batch its
	// only member is left out of, and costs a session nothing — under budget
	// or threshold pressure that alone would reorder what follows, which is
	// the group's documented price, not a delivery difference.
	drain := func(rounds int) {
		for ; rounds > 0; rounds-- {
			feedback()
			r.flush(10 * time.Second)
		}
	}
	drain(20)
	// Held-ack exclusion: the receiver acknowledges a version of obj-05 one
	// ahead of the canonical axis, so the next update is already there.
	r.src.mu.Lock()
	o, _ := r.src.objLocked(ids[5])
	ahead := wire.HeldVersion{ObjectID: o.id, Epoch: r.src.started.UnixNano(), Version: o.version + 1}
	r.src.mu.Unlock()
	r.ss.onFeedback(wire.Feedback{CacheID: "leaf", Held: []wire.HeldVersion{ahead}})
	r.src.Update(ids[5], vals[5]+7)
	// Split-horizon exclusion: a relayed value that already passed through
	// the receiver, then the same object again by another route.
	r.src.UpdateFromAll([]RelayedUpdate{{ObjectID: "up/x", Value: 1,
		Prov: Provenance{Origin: "up", Hops: 2, Via: []string{"leaf", "mid"}, Epoch: 5, Version: 1}}})
	drain(3)
	r.src.UpdateFromAll([]RelayedUpdate{{ObjectID: "up/x", Value: 2,
		Prov: Provenance{Origin: "up", Hops: 1, Via: []string{"mid"}, Epoch: 5, Version: 2}}})
	drain(20)
	return r
}

func TestStreamEquivalence(t *testing.T) {
	cases := []struct {
		name string
		race bool
	}{
		{name: "script"},
		{name: "update between build and commit", race: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := runStreamScript(t, streamLegs[0], tc.race)
			refStats := ref.src.Stats()
			if refStats.Pending != 0 {
				t.Errorf("%s: pending = %d after the quiet phase, want 0", ref.leg.name, refStats.Pending)
			}
			for _, d := range ref.got {
				if d.id == "up/x" && d.version == 1 {
					t.Errorf("%s: split-horizoned value delivered: %+v", ref.leg.name, d)
				}
			}
			if skips := refStats.Sessions[0].HeldSkips; skips != 1 {
				t.Errorf("%s: held skips = %d, want 1", ref.leg.name, skips)
			}
			for _, leg := range streamLegs[1:] {
				r := runStreamScript(t, leg, tc.race)
				st := r.src.Stats()
				// What must agree whatever the interleaving: the receiver ends
				// up holding the same values and nothing is left queued.
				if !maps.Equal(r.holds, ref.holds) {
					t.Errorf("%s: receiver holds %v\n%s: receiver holds %v", leg.name, r.holds, ref.leg.name, ref.holds)
				}
				if st.Pending != 0 {
					t.Errorf("%s: pending = %d after the quiet phase, want 0", leg.name, st.Pending)
				}
				if tc.race {
					continue
				}
				if !slices.Equal(r.got, ref.got) {
					n := 0
					for n < len(r.got) && n < len(ref.got) && r.got[n] == ref.got[n] {
						n++
					}
					t.Errorf("%s delivered %d refreshes, %s %d; streams part at #%d:\n%v\n%v",
						leg.name, len(r.got), ref.leg.name, len(ref.got), n, tail(r.got, n), tail(ref.got, n))
				}
				if st.Threshold != refStats.Threshold {
					t.Errorf("threshold: %s %v, %s %v", leg.name, st.Threshold, ref.leg.name, refStats.Threshold)
				}
				if skips := st.Sessions[0].HeldSkips; skips != 1 {
					t.Errorf("%s: held skips = %d, want 1", leg.name, skips)
				}
				if got, want := r.sent(), ref.sent(); !maps.Equal(got, want) {
					t.Errorf("sent-state: %s %v\n%s %v", leg.name, got, ref.leg.name, want)
				}
			}
			if len(ref.got) < 100 {
				t.Errorf("only %d refreshes delivered: the script no longer exercises the scheduler", len(ref.got))
			}
		})
	}
}

// tail returns up to four items of s starting at n, for a readable diff.
func tail(s []delivered, n int) []delivered {
	return s[n:min(n+4, len(s))]
}
