package runtime

import (
	"encoding/json"
	"net/http"
	"sort"
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

// Status is the cache's observability snapshot, merged across shards.
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
	Shards     int     `json:"shards"`
	ApplyRate  float64 `json:"apply_rate_msgs_per_s"`
	// Poll-policy counters (zero/omitted under push): poll requests sent,
	// reply items received, completed allocation solves.
	Polls       int            `json:"polls,omitempty"`
	PollReplies int            `json:"poll_replies,omitempty"`
	Resolves    int            `json:"resolves,omitempty"`
	Sample      []StatusObject `json:"sample,omitempty"`
}

// Status returns a snapshot including up to sample cached objects (the most
// recently refreshed first).
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
		Shards:      len(c.shards),
		ApplyRate:   c.ApplyRate(),
		Polls:       st.Polls,
		PollReplies: st.PollReplies,
		Resolves:    st.Resolves,
	}
	if sample <= 0 {
		return out
	}
	now := c.cfg.Now()
	var objs []StatusObject
	for _, sh := range c.shards {
		sh.mu.Lock()
		for i := int32(0); i < sh.n; i++ {
			sl := sh.at(i)
			e := &sl.e
			objs = append(objs, StatusObject{
				ID:        sl.id,
				Value:     e.Value,
				Version:   e.Version,
				Source:    e.Source,
				Origin:    e.Origin,
				Hops:      e.Hops,
				Refreshed: e.Refreshed,
				AgeMillis: now.Sub(e.Refreshed).Milliseconds(),
			})
		}
		sh.mu.Unlock()
	}
	sort.Slice(objs, func(i, j int) bool {
		if !objs[i].Refreshed.Equal(objs[j].Refreshed) {
			return objs[i].Refreshed.After(objs[j].Refreshed)
		}
		return objs[i].ID < objs[j].ID
	})
	if len(objs) > sample {
		objs = objs[:sample]
	}
	out.Sample = objs
	return out
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
