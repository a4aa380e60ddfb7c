package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"bestsync/internal/wire"
)

// harness holds everything the benchmark itself needs for one workload: the
// pre-generated update stream, the per-leaf observers and the divergence
// integral. All of it is allocated before the heap baseline is taken and
// reused across set-ups, so none of it shows in heap_bytes_per_object and the
// measured window allocates nothing on the harness side.
type harness struct {
	wl      *workload
	seed    int64
	seconds int // measured window
	sched   *schedule
	ids     []string

	base      time.Time // clock origin; now() is nanoseconds since base
	baseUnix  int64     // base as wall-clock UnixNano, to place the wire's SentUnix
	warmSlots int
	winSlots  int

	// t0 is the due time of slot 0; [winStart, winEnd) is the measured
	// window. Written once per measurement by the main goroutine, read by the
	// observers' goroutines.
	t0, winStart, winEnd atomic.Int64

	stripes []stripe
	origin  []int32 // current origin value per object, under the object's stripe
	holds   int     // milliseconds the generator waited for the origin's queue (pinned workloads)
	obs     []*observer

	// Traced-run state (trace.go).
	traced       bool
	tracing      atomic.Bool // arrivals and visible events are logged while set
	genT0, genT1 []int64     // per update: Source.Update call start and return
	eps          []*tracedEndpoint

	late hist // generator lateness per slot (generator goroutine)
	call hist // Source.Update duration per update (traced runs)
	read hist // per-Get time over reader blocks (reader goroutine)
}

func newHarness(wl *workload, seed int64, seconds int) *harness {
	h := &harness{
		wl:        wl,
		seed:      seed,
		seconds:   seconds,
		ids:       objectIDs(wl),
		base:      time.Now(),
		warmSlots: min(warmupSeconds, seconds) * 1000,
		winSlots:  seconds * 1000,
		stripes:   make([]stripe, nStripes),
		origin:    make([]int32, wl.objects),
	}
	h.baseUnix = h.base.UnixNano()
	h.sched = newSchedule(wl, seed, h.warmSlots+h.winSlots)
	for i := 0; i < wl.leaves; i++ {
		h.obs = append(h.obs, &observer{
			h:      h,
			last:   make([]uint32, wl.objects),
			val:    make([]int32, wl.objects),
			slices: make([]hist, seconds),
		})
	}
	return h
}

// reset returns the harness to the state before any set-up.
func (h *harness) reset() {
	h.t0.Store(math.MaxInt64)
	h.winStart.Store(math.MaxInt64)
	h.winEnd.Store(math.MaxInt64)
	for i := range h.stripes {
		h.stripes[i].s, h.stripes[i].a, h.stripes[i].b = 0, 0, 0
	}
	clear(h.origin)
	h.holds = 0
	for _, ob := range h.obs {
		ob.reset()
	}
	h.late.reset()
	h.call.reset()
	h.read.reset()
}

func (h *harness) now() int64 { return int64(time.Since(h.base)) }

func (h *harness) sleepUntil(t int64) {
	for d := t - h.now(); d > 0; d = t - h.now() {
		time.Sleep(time.Duration(d))
	}
}

// sliceOf returns the 1 s slice of the window that t falls in, or -1.
func (h *harness) sliceOf(t int64) int {
	ws := h.winStart.Load()
	if t < ws || t >= h.winEnd.Load() {
		return -1
	}
	return int((t - ws) / int64(time.Second))
}

// valueAt is the value the generator issued as version v of object o.
func (h *harness) valueAt(o int, v uint32) (int32, bool) {
	if v == 1 {
		return 0, true
	}
	g, ok := h.sched.updateOf(o, v)
	if !ok {
		return 0, false
	}
	return h.sched.val[g], true
}

// dueOf is the due time of update g: the start of its 1 ms slot.
func (h *harness) dueOf(t0 int64, g int32) int64 {
	return t0 + int64(int(g)/h.sched.perSlot)*slotNs
}

// Divergence integral. The sum S(t) of |origin value − leaf value| over every
// (leaf, object) pair changes at two kinds of event — the generator moves an
// origin value, a leaf installs a value — which happen on different
// goroutines. Each object belongs to a stripe; an event takes the stripe's
// lock, so the change δ it adds to S is computed against a consistent pair of
// values and the running sum never drifts. The integral over the window is
// then exact: S(t0)·(t1−t0) + Σ δ·(t1−t_event).
const nStripes = 256

type stripe struct {
	mu sync.Mutex
	s  int64   // current sum over the stripe's pairs
	a  int64   // Σ δ since the window opened
	b  float64 // Σ δ·t (seconds since base) since the window opened
	_  [32]byte
}

func (st *stripe) add(d int64, sec float64) {
	st.s += d
	st.a += d
	st.b += float64(d) * sec
}

func abs32(x int32) int64 {
	if x < 0 {
		return int64(-x)
	}
	return int64(x)
}

// setOrigin records that the generator moved object o to value nv at time sec.
func (h *harness) setOrigin(o int, nv int32, sec float64) {
	st := &h.stripes[o%nStripes]
	st.mu.Lock()
	old := h.origin[o]
	h.origin[o] = nv
	var d int64
	for _, ob := range h.obs {
		lv := ob.val[o]
		d += abs32(nv-lv) - abs32(old-lv)
	}
	st.add(d, sec)
	st.mu.Unlock()
}

// openDivergence starts the integral; closeDivergence returns the time
// average of the mean divergence per (leaf, object) pair since then.
func (h *harness) openDivergence() (s0 []int64, t0 float64) {
	s0 = make([]int64, len(h.stripes))
	t0 = float64(h.now()) / 1e9
	for i := range h.stripes {
		st := &h.stripes[i]
		st.mu.Lock()
		s0[i], st.a, st.b = st.s, 0, 0
		st.mu.Unlock()
	}
	return s0, t0
}

func (h *harness) closeDivergence(s0 []int64, t0 float64) float64 {
	t1 := float64(h.now()) / 1e9
	integral := 0.0
	for i := range h.stripes {
		st := &h.stripes[i]
		st.mu.Lock()
		integral += float64(s0[i])*(t1-t0) + float64(st.a)*t1 - st.b
		st.mu.Unlock()
	}
	return integral / ((t1 - t0) * float64(h.wl.leaves*h.wl.objects))
}

// observer is the OnApply hook of one leaf. It checks every installed refresh
// against the issued stream, closes the visibility latency of every version
// the refresh covers, and feeds the divergence integral.
type observer struct {
	h    *harness
	last []uint32 // origin version held per object; written only by the object's shard worker
	val  []int32  // value held per object, under the object's stripe

	seen   atomic.Int64 // objects held (set-up completion)
	verSum atomic.Int64 // Σ last[o] (convergence: equals Σ final versions when caught up)

	mu       sync.Mutex // the leaf's shard workers share what follows
	slices   []hist     // visibility latency per 1 s slice of the window
	applied  int64
	badValue int64 // installed value differs from the one issued for that version
	badOrder int64 // origin version did not strictly increase
	events   []visibleEvent
}

func (ob *observer) reset() {
	clear(ob.last)
	clear(ob.val)
	ob.seen.Store(0)
	ob.verSum.Store(0)
	for i := range ob.slices {
		ob.slices[i].reset()
	}
	ob.applied, ob.badValue, ob.badOrder = 0, 0, 0
	ob.events = ob.events[:0]
}

func (ob *observer) onApply(rs []wire.Refresh) {
	h := ob.h
	now := h.now()
	sec := float64(now) / 1e9
	t0 := h.t0.Load()
	var sl *hist
	if i := h.sliceOf(now); i >= 0 {
		sl = &ob.slices[i]
	}
	tracing := sl != nil && h.tracing.Load()
	ob.mu.Lock()
	defer ob.mu.Unlock()
	for i := range rs {
		r := &rs[i]
		o := objectIndex(r.ObjectID)
		_, ver := r.OriginAxis()
		v := uint32(ver)
		ob.applied++
		prev := ob.last[o]
		if v <= prev {
			ob.badOrder++
			continue
		}
		want, ok := h.valueAt(o, v)
		if !ok || r.Value != float64(want) {
			ob.badValue++
			want = int32(r.Value)
		}
		ob.last[o] = v
		ob.verSum.Add(int64(v - prev))
		if prev == 0 {
			ob.seen.Add(1)
		}
		st := &h.stripes[o%nStripes]
		st.mu.Lock()
		org := h.origin[o]
		d := abs32(org-want) - abs32(org-ob.val[o])
		ob.val[o] = want
		st.add(d, sec)
		st.mu.Unlock()
		if sl == nil {
			continue
		}
		// A coalesced apply closes the versions it covers — the coverCap most
		// recent ones (see coverCap).
		for k := max(prev+1, 2, v-min(v, coverCap)+1); k <= v; k++ {
			if g, ok := h.sched.updateOf(o, k); ok {
				sl.add(now - h.dueOf(t0, g))
			}
		}
		if tracing && o%h.wl.stride == 0 {
			ob.events = append(ob.events, visibleEvent{obj: int32(o), ver: v, prev: prev, at: now})
		}
	}
}

// visibility merges the observers' slices: the whole-window histogram and the
// per-slice p99s.
func (h *harness) visibility() (all hist, p99s []float64) {
	for s := 0; s < h.seconds; s++ {
		var sl hist
		for _, ob := range h.obs {
			sl.merge(&ob.slices[s])
		}
		if sl.n > 0 {
			p99s = append(p99s, sl.quantile(0.99))
		}
		all.merge(&sl)
	}
	return all, p99s
}
