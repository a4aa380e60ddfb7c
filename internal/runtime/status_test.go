package runtime

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	stdruntime "runtime"
	"sort"
	"testing"
	"time"

	"bestsync/internal/transport"
	"bestsync/internal/wire"
)

func TestStatusSnapshot(t *testing.T) {
	net := transport.NewLocal(16)
	cache := fastCache(net, 10000)
	defer cache.Close()
	conn, err := net.Dial("s1")
	if err != nil {
		t.Fatal(err)
	}
	src := fastSource("s1", conn, 10000)
	defer src.Close()
	src.Update("a", 1)
	src.Update("b", 2)
	waitFor(t, 2*time.Second, func() bool { return cache.Len() == 2 }, "objects cached")

	st := cache.Status(10)
	if st.Objects != 2 {
		t.Errorf("objects = %d, want 2", st.Objects)
	}
	if len(st.Sample) != 2 {
		t.Fatalf("sample = %d entries, want 2", len(st.Sample))
	}
	for _, o := range st.Sample {
		if o.Source != "s1" || o.AgeMillis < 0 {
			t.Errorf("bad sample entry %+v", o)
		}
	}

	// Sampling limit respected.
	if got := cache.Status(1); len(got.Sample) != 1 {
		t.Errorf("sample limit ignored: %d entries", len(got.Sample))
	}
	// Zero sample omits the listing.
	if got := cache.Status(0); got.Sample != nil {
		t.Errorf("sample = %v, want nil", got.Sample)
	}
}

func TestStatusHandler(t *testing.T) {
	net := transport.NewLocal(16)
	cache := fastCache(net, 10000)
	defer cache.Close()
	conn, err := net.Dial("s1")
	if err != nil {
		t.Fatal(err)
	}
	src := fastSource("s1", conn, 10000)
	defer src.Close()
	src.Update("x", 42)
	waitFor(t, 2*time.Second, func() bool { return cache.Len() == 1 }, "object cached")

	srv := httptest.NewServer(cache.StatusHandler(10))
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Objects != 1 || len(st.Sample) != 1 || st.Sample[0].Value != 42 {
		t.Errorf("unexpected status %+v", st)
	}

	// Non-GET rejected.
	post, err := http.Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", post.StatusCode)
	}
}

// TestStatusSampleIsBoundedSelection: the status sample is the top of the
// store by (refresh time desc, id) — the same listing a full sort gives,
// timestamp ties and entries with no refresh time included — yet a call
// allocates for the sample only, not for every stored object.
func TestStatusSampleIsBoundedSelection(t *testing.T) {
	const objects, batch = 16384, 512 // a batch's objects share a refresh time
	clock := newFakeClock()
	c := NewCache(CacheConfig{
		ID: "leaf", Bandwidth: 1e9, Tick: time.Hour, Now: clock.Now,
	}, stubEndpoint{batches: make(chan transport.InboundBatch)})
	defer c.Close()
	ids := make([]string, 0, objects+2)
	for first := 0; first < objects; first += batch {
		clock.advance(time.Millisecond)
		rs := make([]wire.Refresh, batch)
		for i := range rs {
			id := fmt.Sprintf("s1/o%05d", (first+i)*7919%objects) // ids out of insertion order
			rs[i] = wire.Refresh{SourceID: "s1", ObjectID: id, Value: float64(first + i), Version: 1, Epoch: 1}
			ids = append(ids, id)
		}
		apply(t, c, rs...)
	}
	for _, id := range []string{"z/never-refreshed", "a/never-refreshed"} {
		putEntry(c, id, Entry{Value: -1, Version: 1, Source: "snap"})
		ids = append(ids, id)
	}

	now := clock.Now()
	full := make([]StatusObject, 0, len(ids))
	for _, id := range ids {
		e, _ := c.Get(id)
		full = append(full, StatusObject{
			ID: id, Value: e.Value, Version: e.Version, Source: e.Source, Origin: e.Origin,
			Hops: e.Hops, Refreshed: e.Refreshed, AgeMillis: now.Sub(e.Refreshed).Milliseconds(),
		})
	}
	sort.Slice(full, func(i, j int) bool {
		if !full[i].Refreshed.Equal(full[j].Refreshed) {
			return full[i].Refreshed.After(full[j].Refreshed)
		}
		return full[i].ID < full[j].ID
	})
	same := func(got, want []StatusObject) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			g, w := got[i], want[i]
			if !g.Refreshed.Equal(w.Refreshed) {
				return false
			}
			g.Refreshed, w.Refreshed = time.Time{}, time.Time{}
			if g != w {
				return false
			}
		}
		return true
	}
	for _, sample := range []int{1, 10, 600, len(ids), len(ids) + 5} {
		want := full[:min(sample, len(full))]
		if got := c.Status(sample).Sample; !same(got, want) {
			t.Errorf("Status(%d) sample differs from the sorted store: got %d entries, first %+v; want first %+v",
				sample, len(got), got[0], want[0])
		}
	}

	var before, after stdruntime.MemStats
	const calls = 10
	stdruntime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		c.Status(10)
	}
	stdruntime.ReadMemStats(&after)
	// The sample is 10 objects of ~100 B; sorting the store allocated over
	// 2 MB per call.
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall > 16<<10 {
		t.Errorf("Status(10) over %d objects allocated %d B per call, want O(sample)", len(ids), perCall)
	}
}
