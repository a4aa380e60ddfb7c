package runtime

import (
	"cmp"
	"container/heap"
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"time"
)

// StatusObject is one cached entry in a status report.
type StatusObject struct {
	ID        string    `json:"id"`
	Value     float64   `json:"value"`
	Version   uint64    `json:"version"`
	Source    string    `json:"source"`
	Origin    string    `json:"origin,omitempty"` // originating node when relayed
	Hops      int       `json:"hops,omitempty"`   // relay tiers the copy crossed
	Refreshed time.Time `json:"refreshed"`
	AgeMillis int64     `json:"age_ms"`
}

// Status is the cache's observability snapshot.
type Status struct {
	CacheID    string  `json:"cache_id"`
	Policy     string  `json:"policy"` // push | ideal | cgm1 | cgm2
	Objects    int     `json:"objects"`
	Sources    int     `json:"sources"`
	Refreshes  int     `json:"refreshes"`
	Feedbacks  int     `json:"feedbacks"`
	Stale      int     `json:"stale_dropped"`
	Misrouted  int     `json:"misrouted,omitempty"`
	Rejected   int     `json:"rejected,omitempty"` // dropped by the intake filter (relay loop guard)
	Divergence float64 `json:"divergence_absorbed"`
	Bandwidth  float64 `json:"bandwidth_msgs_per_s"`
	ApplyRate  float64 `json:"apply_rate_msgs_per_s"`
	// Poll-policy counters (zero/omitted under push): poll requests sent,
	// reply items received, completed allocation solves.
	Polls       int            `json:"polls,omitempty"`
	PollReplies int            `json:"poll_replies,omitempty"`
	Resolves    int            `json:"resolves,omitempty"`
	Sample      []StatusObject `json:"sample,omitempty"`
}

// Status returns a snapshot including up to sample cached objects (the most
// recently refreshed first, ties by id). It walks the store once and keeps
// only the sample, so a call allocates O(sample), not O(objects).
func (c *Cache) Status(sample int) Status {
	st := c.Stats()
	out := Status{
		CacheID:     c.cfg.ID,
		Policy:      c.cfg.Policy.String(),
		Objects:     c.Len(),
		Sources:     st.Sources,
		Refreshes:   st.Refreshes,
		Feedbacks:   st.Feedbacks,
		Stale:       st.Stale,
		Misrouted:   st.Misrouted,
		Rejected:    st.Rejected,
		Divergence:  st.Divergence,
		Bandwidth:   c.Bandwidth(),
		ApplyRate:   c.ApplyRate(),
		Polls:       st.Polls,
		PollReplies: st.PollReplies,
		Resolves:    st.Resolves,
	}
	if sample <= 0 {
		return out
	}
	now := c.cfg.Now()
	// A bounded selection, not a sort of the store: the heap keeps the sample
	// best slots seen so far, its root the one that ranks last. The copies stay
	// readable after the lock is released — a route is immutable.
	top := make(sampleHeap, 0, min(sample, out.Objects))
	c.mu.RLock()
	for i := int32(0); i < c.store.n; i++ {
		sl := c.store.at(i)
		if len(top) < sample {
			heap.Push(&top, *sl)
		} else if sampleOrder(sl, &top[0]) < 0 {
			top[0] = *sl
			heap.Fix(&top, 0)
		}
	}
	c.mu.RUnlock()
	slices.SortFunc(top, func(a, b slot) int { return sampleOrder(&a, &b) })
	out.Sample = make([]StatusObject, len(top))
	for i := range top {
		var e Entry
		top[i].entry(&e)
		out.Sample[i] = StatusObject{
			ID:        top[i].id,
			Value:     e.Value,
			Version:   e.Version,
			Source:    e.Source,
			Origin:    e.Origin,
			Hops:      e.Hops,
			Refreshed: e.Refreshed,
			AgeMillis: now.Sub(e.Refreshed).Milliseconds(),
		}
	}
	return out
}

// sampleOrder ranks slots for the status sample: the most recent refresh
// first (an unknown refresh time, 0, last), ties by id.
func sampleOrder(a, b *slot) int {
	if c := cmp.Compare(b.refreshed, a.refreshed); c != 0 {
		return c
	}
	return strings.Compare(a.id, b.id)
}

// sampleHeap is a container/heap whose root is the slot that ranks last.
type sampleHeap []slot

func (h sampleHeap) Len() int           { return len(h) }
func (h sampleHeap) Less(i, j int) bool { return sampleOrder(&h[i], &h[j]) > 0 }
func (h sampleHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *sampleHeap) Push(x any)        { *h = append(*h, x.(slot)) }
func (h *sampleHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// StatusHandler serves the cache status as JSON — mount it on a mux for
// operational visibility:
//
//	http.Handle("/status", cache.StatusHandler(100))
func (c *Cache) StatusHandler(sample int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(c.Status(sample)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
