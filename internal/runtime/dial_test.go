package runtime

import (
	"net"
	"testing"
	"time"

	"bestsync/internal/metric"
	"bestsync/internal/transport"
)

// TestDialDestinationsDeferred: a destination that is down at construction
// must not fail the whole set — it starts on a dead stub connection and the
// session's redial loop connects once the peer comes up, after which the
// full object set is synchronized.
func TestDialDestinationsDeferred(t *testing.T) {
	// Reserve an address, then shut it down so the initial dial fails.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	dests, deferred := DialDestinations([]string{addr}, nil, "s1")
	if len(dests) != 1 || len(deferred) != 1 || deferred[0] != addr {
		t.Fatalf("dests=%d deferred=%v, want 1 destination deferred", len(dests), deferred)
	}

	src, err := NewFanoutSource(SourceConfig{
		ID: "s1", Metric: metric.ValueDeviation,
		Bandwidth: 10000, Tick: 5 * time.Millisecond,
	}, dests)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.Update("s1/x", 77)

	// Bring the cache up on the reserved address: the session's backoff
	// loop finds it and delivers the update.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	ep := transport.Serve(ln2, 16)
	cache := NewCache(CacheConfig{ID: "late-cache", Bandwidth: 10000, Tick: 5 * time.Millisecond}, ep)
	defer func() {
		cache.Close()
		ep.Close()
	}()

	waitFor(t, 5*time.Second, func() bool {
		e, ok := cache.Get("s1/x")
		return ok && e.Value == 77
	}, "the late-starting cache to receive the update")
	if got := src.Stats().Sessions[0].Reconnects; got < 1 {
		t.Errorf("reconnects = %d, want ≥ 1 (the initial connection was a stub)", got)
	}
}
