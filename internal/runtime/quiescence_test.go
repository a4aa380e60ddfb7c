package runtime

import (
	"testing"
	"time"
)

// TestQuiescenceParksLoweredObject states the gap of ROADMAP item 12 as it
// stands. Under the default AreaGeneral priority, P = (t − t_last)·D − ∫D dτ,
// an update that lowers an object's divergence below its time-average since
// the last commit makes P ≤ 0, and the scheduler takes the object out of the
// queue. With D constant from then on P stays where it is, so once updates
// stop nothing puts the object back, however long the group waits, however
// ample its budget and however low its threshold: the members keep the old
// value for good. The same script parks in internal/engine too (its test of
// the same name). Item 12's second slice (one rule in spec §3 and §7) is what
// changes the answer below.
func TestQuiescenceParksLoweredObject(t *testing.T) {
	r := newEarlyRig(t, 2e6, time.Hour, pinnedParams(1e-6))
	step := func(d time.Duration, v float64) {
		r.clock.advance(d)
		r.src.Update("x", v)
	}
	step(0, 0)
	r.g.pass(false) // commits 0
	step(100*time.Millisecond, 10)
	step(800*time.Millisecond, 1) // P = 0.9 s × 1 − 0.8 s × 10 < 0
	for range 10_000 {
		r.clock.advance(10 * time.Millisecond)
		r.g.pass(false)
	}
	r.settle(t)

	r.src.mu.Lock()
	o, _ := r.src.objLocked("x")
	so := r.g.objs.at(int(o.key))
	value, sent, d, queued := o.value, so.sentVal, so.tracker.Current(), r.g.eng.Queue.Contains(int(o.key))
	r.src.mu.Unlock()
	if value != 1 || sent != 0 || d != 1 || queued {
		t.Errorf("source holds %v, group committed %v at divergence %v, queued=%v; want 1, 0, 1 and parked out of the queue",
			value, sent, d, queued)
	}
	if st := r.src.Stats().Group; st.Scheduled != 1 || st.Pending != 0 {
		t.Errorf("scheduled=%d pending=%d, want only the first commit and nothing pending", st.Scheduled, st.Pending)
	}
	for i := range r.nets {
		held, n := -1.0, 0
		for {
			select {
			case b := <-r.nets[i].Batches():
				for _, ref := range b.Refreshes {
					held, n = ref.Value, n+1
				}
				continue
			default:
			}
			break
		}
		if n != 1 || held != 0 {
			t.Errorf("member %d was sent %d refreshes and holds %v, want one and the committed 0", i, n, held)
		}
	}
}
