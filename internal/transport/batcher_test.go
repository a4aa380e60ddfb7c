package transport

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"bestsync/internal/wire"
)

func refreshes(src string, n int) []wire.Refresh {
	rs := make([]wire.Refresh, n)
	for i := range rs {
		rs[i] = wire.Refresh{
			SourceID: src,
			ObjectID: fmt.Sprintf("%s/obj-%d", src, i),
			Value:    float64(i),
			Version:  uint64(i + 1),
		}
	}
	return rs
}

func TestLocalBatchRoundTrip(t *testing.T) {
	l := NewLocal(4)
	defer l.Close()
	conn, err := l.Dial("s1")
	if err != nil {
		t.Fatal(err)
	}
	want := refreshes("s1", 5)
	if err := conn.SendBatch(want); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-l.Batches():
		if len(b.Refreshes) != len(want) {
			t.Fatalf("batch has %d refreshes, want %d", len(b.Refreshes), len(want))
		}
		for i, r := range b.Refreshes {
			if !reflect.DeepEqual(r, want[i]) {
				t.Errorf("refresh %d = %+v, want %+v", i, r, want[i])
			}
		}
	case <-time.After(time.Second):
		t.Fatal("batch not delivered")
	}
	// Empty batches are a no-op, not an error.
	if err := conn.SendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestTCPBatchRoundTrip(t *testing.T) {
	srv, addr := serveTCP(t)
	conn, err := Dial(addr, "s1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	want := refreshes("s1", 7)
	// Spoofed source ids inside the batch get stamped from the stream.
	want[3].SourceID = "spoof"
	if err := conn.SendBatch(want); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-srv.Batches():
		if len(b.Refreshes) != len(want) {
			t.Fatalf("batch has %d refreshes, want %d", len(b.Refreshes), len(want))
		}
		for i, r := range b.Refreshes {
			if r.SourceID != "s1" {
				t.Errorf("refresh %d source = %q, want stream identity", i, r.SourceID)
			}
			if r.ObjectID != want[i].ObjectID || r.Value != want[i].Value {
				t.Errorf("refresh %d = %+v, want %+v", i, r, want[i])
			}
		}
	case <-time.After(2 * time.Second):
		t.Fatal("batch not received")
	}
}

func TestBatcherFlushBySize(t *testing.T) {
	l := NewLocal(16)
	defer l.Close()
	raw, err := l.Dial("s1")
	if err != nil {
		t.Fatal(err)
	}
	// A long flush interval isolates the size trigger.
	b := NewBatcher(raw, BatcherConfig{MaxBatch: 4, FlushEvery: time.Hour})
	defer b.Close()
	for _, r := range refreshes("s1", 4) {
		if err := b.SendRefresh(r); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case got := <-l.Batches():
		if len(got.Refreshes) != 4 {
			t.Errorf("batch size = %d, want 4", len(got.Refreshes))
		}
	case <-time.After(time.Second):
		t.Fatal("size-triggered flush never happened")
	}
}

func TestBatcherFlushByInterval(t *testing.T) {
	l := NewLocal(16)
	defer l.Close()
	raw, err := l.Dial("s1")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(raw, BatcherConfig{MaxBatch: 1000, FlushEvery: 5 * time.Millisecond})
	defer b.Close()
	if err := b.SendRefresh(refreshes("s1", 1)[0]); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-l.Batches():
		if len(got.Refreshes) != 1 {
			t.Errorf("batch size = %d, want 1", len(got.Refreshes))
		}
	case <-time.After(time.Second):
		t.Fatal("interval-triggered flush never happened")
	}
}

func TestBatcherCloseFlushesPending(t *testing.T) {
	l := NewLocal(16)
	defer l.Close()
	raw, err := l.Dial("s1")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(raw, BatcherConfig{MaxBatch: 1000, FlushEvery: time.Hour})
	want := refreshes("s1", 3)
	for _, r := range want {
		if err := b.SendRefresh(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-l.Batches():
		if len(got.Refreshes) != 3 {
			t.Errorf("batch size = %d, want 3", len(got.Refreshes))
		}
	case <-time.After(time.Second):
		t.Fatal("close did not flush pending refreshes")
	}
	if err := b.SendRefresh(want[0]); err == nil {
		t.Error("send after close accepted")
	}
}

// flakyBatchConn fails its first SendBatch calls, then recovers.
type flakyBatchConn struct {
	failures int
	batches  [][]wire.Refresh
	fb       chan wire.Feedback
}

func (c *flakyBatchConn) SendRefresh(r wire.Refresh) error {
	return c.SendBatch([]wire.Refresh{r})
}

func (c *flakyBatchConn) SendBatch(rs []wire.Refresh) error {
	if c.failures > 0 {
		c.failures--
		return fmt.Errorf("flaky: injected failure")
	}
	c.batches = append(c.batches, append([]wire.Refresh(nil), rs...))
	return nil
}

func (c *flakyBatchConn) Feedback() <-chan wire.Feedback { return c.fb }
func (c *flakyBatchConn) Close() error                   { return nil }

// TestBatcherReBuffersFailedFlush: a batch that fails to flush stays
// pending (in order) so the Close-time retry can still deliver it — a
// refresh the Batcher accepted is never silently discarded while the
// connection might recover.
func TestBatcherReBuffersFailedFlush(t *testing.T) {
	conn := &flakyBatchConn{failures: 1, fb: make(chan wire.Feedback)}
	b := NewBatcher(conn, BatcherConfig{MaxBatch: 4, FlushEvery: time.Hour})
	want := refreshes("s1", 4)
	var sendErr error
	for _, r := range want {
		if err := b.SendRefresh(r); err != nil {
			sendErr = err
		}
	}
	if sendErr == nil {
		t.Fatal("the size-triggered flush should have surfaced the injected failure")
	}
	if err := b.Close(); err != nil {
		t.Fatalf("close retry should deliver the re-buffered batch: %v", err)
	}
	if len(conn.batches) != 1 || len(conn.batches[0]) != 4 {
		t.Fatalf("delivered %d batches %v, want the full re-buffered batch of 4",
			len(conn.batches), conn.batches)
	}
	for i, r := range conn.batches[0] {
		if !reflect.DeepEqual(r, want[i]) {
			t.Errorf("refresh %d = %+v, want %+v (order must be preserved)", i, r, want[i])
		}
	}
}

// syncedFlakyConn is a concurrency-safe flakyBatchConn for tests that let
// the Batcher's timer goroutine drive the flushes.
type syncedFlakyConn struct {
	mu       sync.Mutex
	failures int
	batches  [][]wire.Refresh
	fb       chan wire.Feedback
}

func (c *syncedFlakyConn) SendRefresh(r wire.Refresh) error {
	return c.SendBatch([]wire.Refresh{r})
}

func (c *syncedFlakyConn) SendBatch(rs []wire.Refresh) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failures > 0 {
		c.failures--
		return fmt.Errorf("flaky: injected failure")
	}
	c.batches = append(c.batches, append([]wire.Refresh(nil), rs...))
	return nil
}

func (c *syncedFlakyConn) delivered() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, b := range c.batches {
		n += len(b)
	}
	return n
}

func (c *syncedFlakyConn) Feedback() <-chan wire.Feedback { return c.fb }
func (c *syncedFlakyConn) Close() error                   { return nil }

// TestBatcherRecoversAfterTransientFlushError is the regression test for
// the permanently poisoned Batcher: a failed timer-driven flush set the
// sticky error, but a later successful retry of the re-buffered batch
// never cleared it, so every future send failed on a healthy connection.
// After the transient failure heals, sends must flow again.
func TestBatcherRecoversAfterTransientFlushError(t *testing.T) {
	conn := &syncedFlakyConn{failures: 1, fb: make(chan wire.Feedback)}
	// Large MaxBatch so only the timer drives flushes: the failure and the
	// recovery both happen on the background path, never surfacing to a
	// send that could be retried by the caller.
	b := NewBatcher(conn, BatcherConfig{MaxBatch: 1000, FlushEvery: 2 * time.Millisecond})
	defer b.Close()
	first := refreshes("s1", 1)[0]
	if err := b.SendRefresh(first); err != nil {
		t.Fatalf("initial send rejected: %v", err)
	}
	// The first timer flush fails (sticky error set); the next retries the
	// re-buffered batch and succeeds.
	deadline := time.Now().Add(2 * time.Second)
	for conn.delivered() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("re-buffered batch never delivered after the transient failure")
		}
		time.Sleep(time.Millisecond)
	}
	// The connection is healthy and the backlog is drained: a new send
	// must be accepted, not rejected with the stale sticky error.
	var err error
	for range [50]int{} {
		if err = b.SendRefresh(refreshes("s1", 2)[1]); err == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err != nil {
		t.Fatalf("send still failing after a successful retry flush: %v", err)
	}
	waitDeadline := time.Now().Add(2 * time.Second)
	for conn.delivered() < 2 {
		if time.Now().After(waitDeadline) {
			t.Fatalf("post-recovery refresh never delivered (%d total)", conn.delivered())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBatcherPreservesOrder(t *testing.T) {
	l := NewLocal(64)
	defer l.Close()
	raw, err := l.Dial("s1")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(raw, BatcherConfig{MaxBatch: 8, FlushEvery: time.Millisecond})
	const n = 100
	for i := 0; i < n; i++ {
		if err := b.SendRefresh(wire.Refresh{
			SourceID: "s1", ObjectID: "x", Version: uint64(i + 1),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	var last uint64
	count := 0
	for count < n {
		select {
		case got := <-l.Batches():
			for _, r := range got.Refreshes {
				if r.Version <= last {
					t.Fatalf("version %d arrived after %d", r.Version, last)
				}
				last = r.Version
				count++
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d of %d refreshes delivered", count, n)
		}
	}
}

// TestBatcherSendBatchPassesThrough: a batch the caller already cut is not
// held for the size or the timer. It goes out as its own batch before
// SendBatch returns, behind the singletons pending ahead of it, which leave
// first in one batch of their own.
func TestBatcherSendBatchPassesThrough(t *testing.T) {
	conn := &syncedFlakyConn{fb: make(chan wire.Feedback)}
	b := NewBatcher(conn, BatcherConfig{MaxBatch: 1000, FlushEvery: time.Hour})
	defer b.Close()
	rs := refreshes("s1", 5)
	for _, r := range rs[:2] {
		if err := b.SendRefresh(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SendBatch(rs[2:]); err != nil {
		t.Fatal(err)
	}
	conn.mu.Lock()
	got := conn.batches
	conn.mu.Unlock()
	if len(got) != 2 || len(got[0]) != 2 || len(got[1]) != 3 {
		t.Fatalf("delivered %v on return, want the 2 pending singletons, then the batch of 3", got)
	}
	for i, r := range append(got[0], got[1]...) {
		if !reflect.DeepEqual(r, rs[i]) {
			t.Errorf("refresh %d = %+v, want %+v (order must be preserved)", i, r, rs[i])
		}
	}
}

// TestBatcherSendBatchFailure: a batch whose write fails is the caller's to
// handle — SendBatch returns the error and buffers nothing — and the next
// batch goes out once the connection has recovered.
func TestBatcherSendBatchFailure(t *testing.T) {
	conn := &syncedFlakyConn{failures: 1, fb: make(chan wire.Feedback)}
	b := NewBatcher(conn, BatcherConfig{MaxBatch: 1000, FlushEvery: time.Hour})
	rs := refreshes("s1", 3)
	if err := b.SendBatch(rs); err == nil {
		t.Fatal("a failed batch write returned nil")
	}
	if err := b.SendBatch(rs[:1]); err != nil {
		t.Fatalf("the next batch on a recovered connection: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if n := conn.delivered(); n != 1 {
		t.Fatalf("delivered %d refreshes, want only the second batch's 1: a failed batch is not retried", n)
	}
}
