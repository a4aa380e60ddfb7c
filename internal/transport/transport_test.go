package transport

import (
	"fmt"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"bestsync/internal/wire"
	"bestsync/internal/wire/codec"
)

// recvOne receives one batch from ch and returns its only refresh.
func recvOne(t *testing.T, ch <-chan InboundBatch) wire.Refresh {
	t.Helper()
	select {
	case b := <-ch:
		if len(b.Refreshes) != 1 {
			t.Fatalf("batch has %d refreshes, want 1", len(b.Refreshes))
		}
		return b.Refreshes[0]
	case <-time.After(2 * time.Second):
		t.Fatal("refresh not delivered")
		return wire.Refresh{}
	}
}

// serveTCP starts a TCP cache endpoint on a loopback port, closed when the
// test and its subtests end, and returns it with its address.
func serveTCP(t *testing.T) (CacheEndpoint, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, 16)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

func TestLocalRoundTrip(t *testing.T) {
	l := NewLocal(4)
	defer l.Close()
	conn, err := l.Dial("s1")
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.SendRefresh(wire.Refresh{SourceID: "s1", ObjectID: "a", Value: 1}); err != nil {
		t.Fatal(err)
	}
	if r := recvOne(t, l.Batches()); r.ObjectID != "a" || r.Value != 1 {
		t.Errorf("got %+v", r)
	}
	if err := l.SendFeedback("s1", wire.Feedback{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-conn.Feedback():
	case <-time.After(time.Second):
		t.Fatal("feedback not delivered")
	}
}

func TestLocalPollRoundTrip(t *testing.T) {
	l := NewLocal(4)
	defer l.Close()
	conn, err := l.Dial("s1")
	if err != nil {
		t.Fatal(err)
	}
	pc, ok := conn.(PollConn)
	if !ok {
		t.Fatal("local connection does not implement PollConn")
	}
	pe := PollEndpoint(l)
	if err := pe.SendPoll("s1", wire.Poll{CacheID: "c", ObjectIDs: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-pc.Polls():
		if p.CacheID != "c" || len(p.ObjectIDs) != 1 || p.ObjectIDs[0] != "a" {
			t.Errorf("got poll %+v", p)
		}
	case <-time.After(time.Second):
		t.Fatal("poll not delivered")
	}
	if err := pe.SendPoll("ghost", wire.Poll{}); err == nil {
		t.Error("poll to unknown source accepted")
	}
	if err := pc.SendReply(wire.PollReply{SourceID: "s1", Items: []wire.PollItem{
		{ObjectID: "a", Exists: true, Value: 4, Version: 2},
	}}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-pe.Replies():
		if r.SourceID != "s1" || len(r.Items) != 1 || r.Items[0].Value != 4 {
			t.Errorf("got reply %+v", r)
		}
	case <-time.After(time.Second):
		t.Fatal("reply not delivered")
	}
}

// TestLocalSendsCopy: every Local send leaves its caller free to reuse the
// argument's slices once it returns — overwriting them afterwards changes
// nothing the other side receives, in either direction.
func TestLocalSendsCopy(t *testing.T) {
	l := NewLocal(4)
	defer l.Close()
	conn, err := l.Dial("s1")
	if err != nil {
		t.Fatal(err)
	}
	pc := conn.(PollConn)
	held := []wire.HeldVersion{{ObjectID: "a", Epoch: 1, Version: 2}}
	ids := []string{"a", "b"}
	known := []wire.KnownVersion{{ObjectID: "a", Origin: "o", Epoch: 1, Version: 2}}
	rs := []wire.Refresh{{SourceID: "s1", ObjectID: "a", Value: 1}}
	items := []wire.PollItem{{ObjectID: "a", Exists: true, Value: 3}}
	pushed := []string{"a"}
	if err := l.SendFeedback("s1", wire.Feedback{Held: held}); err != nil {
		t.Fatal(err)
	}
	if err := l.SendPoll("s1", wire.Poll{ObjectIDs: ids, Known: known}); err != nil {
		t.Fatal(err)
	}
	if err := conn.SendBatch(rs); err != nil {
		t.Fatal(err)
	}
	if err := pc.SendReply(wire.PollReply{SourceID: "s1", Items: items, Pushed: pushed}); err != nil {
		t.Fatal(err)
	}
	held[0], ids[0], known[0], rs[0], items[0], pushed[0] = wire.HeldVersion{}, "x", wire.KnownVersion{}, wire.Refresh{}, wire.PollItem{}, "x"

	if fb := <-conn.Feedback(); !reflect.DeepEqual(fb.Held, []wire.HeldVersion{{ObjectID: "a", Epoch: 1, Version: 2}}) {
		t.Errorf("feedback's held acks changed after the send: %+v", fb.Held)
	}
	p := <-pc.Polls()
	if !reflect.DeepEqual(p.ObjectIDs, []string{"a", "b"}) || !reflect.DeepEqual(p.Known, []wire.KnownVersion{{ObjectID: "a", Origin: "o", Epoch: 1, Version: 2}}) {
		t.Errorf("poll changed after the send: %+v", p)
	}
	if r := recvOne(t, l.Batches()); r.ObjectID != "a" || r.Value != 1 {
		t.Errorf("batch changed after the send: %+v", r)
	}
	r := <-l.Replies()
	if !reflect.DeepEqual(r.Items, []wire.PollItem{{ObjectID: "a", Exists: true, Value: 3}}) || !reflect.DeepEqual(r.Pushed, []string{"a"}) {
		t.Errorf("reply changed after the send: %+v", r)
	}
}

func TestLocalDuplicateSourceRejected(t *testing.T) {
	l := NewLocal(4)
	defer l.Close()
	if _, err := l.Dial("s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Dial("s1"); err == nil {
		t.Fatal("duplicate dial accepted")
	}
	if _, err := l.Dial(""); err == nil {
		t.Fatal("empty id accepted")
	}
}

func TestLocalFeedbackUnknownSource(t *testing.T) {
	l := NewLocal(4)
	defer l.Close()
	if err := l.SendFeedback("ghost", wire.Feedback{}); err == nil {
		t.Fatal("feedback to unknown source accepted")
	}
}

func TestLocalSourcesList(t *testing.T) {
	l := NewLocal(4)
	defer l.Close()
	l.Dial("a")
	l.Dial("b")
	if got := len(l.Sources()); got != 2 {
		t.Errorf("sources = %d, want 2", got)
	}
}

// forEachEndpoint runs f against a Local network and a TCP server, each with
// a dial function whose connections close when the test ends.
func forEachEndpoint(t *testing.T, f func(t *testing.T, ep CacheEndpoint, dial func(id string) SourceConn)) {
	t.Run("local", func(t *testing.T) {
		l := NewLocal(4)
		t.Cleanup(func() { l.Close() })
		f(t, l, func(id string) SourceConn {
			c, err := l.Dial(id)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c
		})
	})
	t.Run("tcp", func(t *testing.T) {
		srv, addr := serveTCP(t)
		f(t, srv, func(id string) SourceConn {
			c, err := Dial(addr, id)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c
		})
	})
}

// waitSources waits until ep lists n connected sources: a TCP server
// registers a connection after the client's dial returns, and drops it after
// the client's close returns.
func waitSources(t *testing.T, ep CacheEndpoint, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for len(ep.Sources()) != n {
		if time.Now().After(deadline) {
			t.Fatalf("sources = %v, want %d of them", ep.Sources(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSourcesAllocateNothing: the cache asks for the connected sources on
// every feedback round, and the answer is a snapshot, not a fresh slice.
func TestSourcesAllocateNothing(t *testing.T) {
	forEachEndpoint(t, func(t *testing.T, ep CacheEndpoint, dial func(string) SourceConn) {
		dial("a")
		dial("b")
		waitSources(t, ep, 2)
		if n := testing.AllocsPerRun(100, func() { ep.Sources() }); n != 0 {
			t.Errorf("Sources allocated %.1f times per call, want 0", n)
		}
	})
}

// TestSourcesSnapshotSurvivesDisconnect: a slice Sources handed out is never
// written again — a disconnect or a connect replaces the snapshot — so a
// reader may range over it while sources come and go.
func TestSourcesSnapshotSurvivesDisconnect(t *testing.T) {
	forEachEndpoint(t, func(t *testing.T, ep CacheEndpoint, dial func(string) SourceConn) {
		a := dial("a")
		dial("b")
		waitSources(t, ep, 2)
		before := ep.Sources()
		want := slices.Clone(before)
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, id := range ep.Sources() {
					if id == "" {
						t.Error("an empty source id in the snapshot")
					}
				}
				runtime.Gosched()
			}
		}()
		a.Close()
		waitSources(t, ep, 1)
		dial("c")
		waitSources(t, ep, 2)
		close(stop)
		<-done
		if !slices.Equal(before, want) {
			t.Errorf("a snapshot taken before the disconnect changed from %v to %v", want, before)
		}
		got := slices.Sorted(slices.Values(ep.Sources()))
		if !slices.Equal(got, []string{"b", "c"}) {
			t.Errorf("sources = %v, want [b c]", got)
		}
	})
}

func TestLocalConnCloseDetaches(t *testing.T) {
	l := NewLocal(4)
	defer l.Close()
	conn, _ := l.Dial("s1")
	conn.Close()
	if err := conn.SendRefresh(wire.Refresh{SourceID: "s1", ObjectID: "a"}); err == nil {
		t.Fatal("send on closed conn accepted")
	}
	// The id can be reused after close (reconnect).
	if _, err := l.Dial("s1"); err != nil {
		t.Fatalf("redial failed: %v", err)
	}
}

func TestLocalClosedNetwork(t *testing.T) {
	l := NewLocal(4)
	l.Close()
	if _, err := l.Dial("s1"); err == nil {
		t.Fatal("dial on closed network accepted")
	}
	if err := l.SendFeedback("s1", wire.Feedback{}); err == nil {
		t.Fatal("feedback on closed network accepted")
	}
	l.Close() // idempotent
}

func TestFeedbackNonBlocking(t *testing.T) {
	l := NewLocal(4)
	defer l.Close()
	l.Dial("s1")
	// Saturate the feedback buffer; further sends must not block.
	for i := 0; i < 20; i++ {
		if err := l.SendFeedback("s1", wire.Feedback{}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTCPRoundTrip(t *testing.T) {
	srv, addr := serveTCP(t)

	conn, err := Dial(addr, "s1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if err := conn.SendRefresh(wire.Refresh{
		SourceID: "s1", ObjectID: "a", Value: 3.5, Version: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if r := recvOne(t, srv.Batches()); r.ObjectID != "a" || r.Value != 3.5 || r.SourceID != "s1" {
		t.Errorf("got %+v", r)
	}

	// Feedback requires the server to have registered the source.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := srv.SendFeedback("s1", wire.Feedback{}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("source never registered for feedback")
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case <-conn.Feedback():
	case <-time.After(2 * time.Second):
		t.Fatal("feedback not received")
	}
}

func TestTCPPollRoundTrip(t *testing.T) {
	srv, addr := serveTCP(t)
	pe, ok := srv.(PollEndpoint)
	if !ok {
		t.Fatal("TCP server does not implement PollEndpoint")
	}

	conn, err := Dial(addr, "s1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pc, ok := conn.(PollConn)
	if !ok {
		t.Fatal("TCP client does not implement PollConn")
	}

	// Polling requires the server to have processed the Hello.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := pe.SendPoll("s1", wire.Poll{CacheID: "c", ObjectIDs: []string{"a", "b"}}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("source never registered for polls")
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case p := <-pc.Polls():
		if p.CacheID != "c" || len(p.ObjectIDs) != 2 {
			t.Errorf("got poll %+v", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("poll not received")
	}

	// The reply's SourceID comes from the stream identity, not the client's
	// claim — same rule as refreshes.
	if err := pc.SendReply(wire.PollReply{SourceID: "impostor", All: true, Items: []wire.PollItem{
		{ObjectID: "a", Exists: true, Value: 1.5, Version: 3, Epoch: 7, LastModifiedUnix: 99},
		{ObjectID: ""}, // malformed: dropped, rest of the reply kept
		{ObjectID: "b"},
	}}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-pe.Replies():
		if r.SourceID != "s1" {
			t.Errorf("reply source = %q, want stream identity s1", r.SourceID)
		}
		if !r.All || len(r.Items) != 2 || r.Items[0].Value != 1.5 || r.Items[1].Exists {
			t.Errorf("got reply %+v", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reply not received")
	}

	// Refreshes and replies interleave on one stream.
	if err := conn.SendRefresh(wire.Refresh{SourceID: "s1", ObjectID: "c", Value: 2}); err != nil {
		t.Fatal(err)
	}
	if r := recvOne(t, srv.Batches()); r.ObjectID != "c" {
		t.Errorf("got %+v", r)
	}
}

// TestClientReadsFramesLargerThanBuffer: a source's read buffer is sized for
// a routine feedback, and frames larger than it still arrive intact — a
// feedback carrying 256 held acks of 64-byte ids, and a poll of many ids.
func TestClientReadsFramesLargerThanBuffer(t *testing.T) {
	srv, addr := serveTCP(t)
	conn, err := Dial(addr, "s1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	waitSources(t, srv, 1)

	fb := wire.Feedback{CacheID: "c", SentUnix: 42}
	for i := 0; i < 256; i++ {
		id := fmt.Sprintf("held-%03d/", i)
		id += strings.Repeat("x", 64-len(id))
		fb.Held = append(fb.Held, wire.HeldVersion{ObjectID: id, Epoch: 1_700_000_000_000_000_000 + int64(i), Version: uint64(i) << 20})
	}
	poll := wire.Poll{CacheID: "c", SentUnix: 43}
	for i := 0; i < 2000; i++ {
		poll.ObjectIDs = append(poll.ObjectIDs, fmt.Sprintf("sensor-%05d/temperature", i))
	}
	var enc codec.Encoder
	for _, env := range []wire.SourceBound{{Feedback: &fb}, {Poll: &poll}} {
		frame, err := enc.AppendSourceBound(nil, env)
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) <= clientReadBufSize {
			t.Fatalf("a %d-byte frame fits the %d-byte client buffer", len(frame), clientReadBufSize)
		}
	}

	if err := srv.SendFeedback("s1", fb); err != nil {
		t.Fatal(err)
	}
	if err := srv.(PollEndpoint).SendPoll("s1", poll); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-conn.Feedback():
		if got.CacheID != fb.CacheID || got.SentUnix != fb.SentUnix || !slices.Equal(got.Held, fb.Held) {
			t.Errorf("feedback arrived altered: %d held acks, want %d", len(got.Held), len(fb.Held))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("feedback not received")
	}
	select {
	case got := <-conn.(PollConn).Polls():
		if got.CacheID != poll.CacheID || got.SentUnix != poll.SentUnix || !slices.Equal(got.ObjectIDs, poll.ObjectIDs) {
			t.Errorf("poll arrived altered: %d ids, want %d", len(got.ObjectIDs), len(poll.ObjectIDs))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("poll not received")
	}
}

func TestBatcherPollPassthrough(t *testing.T) {
	l := NewLocal(4)
	defer l.Close()
	raw, err := l.Dial("s1")
	if err != nil {
		t.Fatal(err)
	}
	conn := NewBatcher(raw, BatcherConfig{})
	defer conn.Close()
	pc, ok := conn.(PollConn)
	if !ok {
		t.Fatal("batcher does not implement PollConn")
	}
	if err := PollEndpoint(l).SendPoll("s1", wire.Poll{ObjectIDs: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-pc.Polls():
		if len(p.ObjectIDs) != 1 {
			t.Errorf("got poll %+v", p)
		}
	case <-time.After(time.Second):
		t.Fatal("poll not delivered through batcher")
	}
	if err := pc.SendReply(wire.PollReply{SourceID: "s1"}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-l.Replies():
	case <-time.After(time.Second):
		t.Fatal("reply not delivered through batcher")
	}
}

func TestTCPSourceIdentityAuthoritative(t *testing.T) {
	srv, addr := serveTCP(t)
	conn, err := Dial(addr, "real")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A refresh claiming a different source id gets stamped with the
	// stream identity.
	conn.SendRefresh(wire.Refresh{SourceID: "spoof", ObjectID: "a", Version: 1})
	if r := recvOne(t, srv.Batches()); r.SourceID != "real" {
		t.Errorf("source id = %q, want stream identity", r.SourceID)
	}
}

func TestTCPReconnectReplacesConn(t *testing.T) {
	srv, addr := serveTCP(t)

	c1, err := Dial(addr, "s1")
	if err != nil {
		t.Fatal(err)
	}
	c1.SendRefresh(wire.Refresh{SourceID: "s1", ObjectID: "a", Version: 1})
	<-srv.Batches()

	c2, err := Dial(addr, "s1")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// The new connection must become the feedback target.
	if err := c2.SendRefresh(wire.Refresh{SourceID: "s1", ObjectID: "b", Version: 1}); err != nil {
		t.Fatal(err)
	}
	if r := recvOne(t, srv.Batches()); r.ObjectID != "b" {
		t.Errorf("got %+v", r)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := srv.SendFeedback("s1", wire.Feedback{}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reconnected source not registered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case <-c2.Feedback():
	case <-time.After(2 * time.Second):
		t.Fatal("feedback after reconnect not received")
	}
}

func TestTCPServerCloseUnblocksClients(t *testing.T) {
	srv, addr := serveTCP(t)
	conn, err := Dial(addr, "s1")
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// The client's feedback channel eventually closes.
	select {
	case _, ok := <-conn.Feedback():
		if ok {
			t.Error("expected closed feedback channel")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("feedback channel not closed after server shutdown")
	}
}

func TestDialEmptyID(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", ""); err == nil {
		t.Fatal("empty source id accepted")
	}
}

// TestDialAllFanout: one source dials several caches; feedback from each
// cache arrives on the right connection carrying that cache's identity.
func TestDialAllFanout(t *testing.T) {
	const n = 3
	srvs := make([]CacheEndpoint, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srvs[i], addrs[i] = serveTCP(t)
	}
	conns, err := DialAll(addrs, "s1")
	if err != nil {
		t.Fatal(err)
	}
	for i, conn := range conns {
		defer conn.Close()
		if err := conn.SendRefresh(wire.Refresh{
			SourceID: "s1", ObjectID: "a", Version: 1,
		}); err != nil {
			t.Fatal(err)
		}
		recvOne(t, srvs[i].Batches())
		deadline := time.Now().Add(2 * time.Second)
		fb := wire.Feedback{CacheID: "c" + string(rune('0'+i))}
		for {
			if err := srvs[i].SendFeedback("s1", fb); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("cache %d never registered the source", i)
			}
			time.Sleep(10 * time.Millisecond)
		}
		select {
		case got := <-conn.Feedback():
			if got.CacheID != fb.CacheID {
				t.Errorf("conn %d received feedback from %q, want %q", i, got.CacheID, fb.CacheID)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("conn %d: feedback not received", i)
		}
	}
}

// TestDialAllPartialFailureCleansUp: a failed dial closes the connections
// already established.
func TestDialAllPartialFailureCleansUp(t *testing.T) {
	_, addr := serveTCP(t)
	// Port 0 is never listenable, so connecting to it is refused
	// deterministically — unlike the listen-then-close trick, where another
	// process can rebind the freed port between Close and DialAll.
	deadAddr := "127.0.0.1:0"
	if _, err := DialAll([]string{addr, deadAddr}, "s1"); err == nil {
		t.Fatal("DialAll to a dead address succeeded")
	}
}
