package transport

import (
	"io"
	"net"
	"testing"
	"time"

	"bestsync/internal/wire"
	"bestsync/internal/wire/codec"
)

// TestTCPRoundTripPerCodec runs the full bidirectional exchange — refresh
// up, feedback down, poll down, reply up — under each client codec against
// one server. Binary is the only TCP encoding.
func TestTCPRoundTripPerCodec(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		srv, addr := serveTCP(t)
		conn, err := Dial(addr, "s1")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, ok := conn.(FrameSender); !ok {
			t.Fatal("TCP client does not implement FrameSender")
		}

		if err := conn.SendRefresh(wire.Refresh{
			SourceID: "s1", ObjectID: "a", Value: 3.5, Version: 1,
			Origin: "s1", Via: []string{"relay-1"}, Hops: 1,
		}); err != nil {
			t.Fatal(err)
		}
		if r := recvOne(t, srv.Batches()); r.ObjectID != "a" || r.Value != 3.5 || len(r.Via) != 1 {
			t.Errorf("got %+v", r)
		}

		deadline := time.Now().Add(2 * time.Second)
		fb := wire.Feedback{CacheID: "edge", Held: []wire.HeldVersion{{ObjectID: "a", Version: 1}}}
		for {
			if err := srv.SendFeedback("s1", fb); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("source never registered for feedback")
			}
			time.Sleep(10 * time.Millisecond)
		}
		select {
		case got := <-conn.Feedback():
			if got.CacheID != "edge" || len(got.Held) != 1 || got.Held[0].ObjectID != "a" {
				t.Errorf("feedback drifted: %+v", got)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("feedback not received")
		}

		pe, pc := srv.(PollEndpoint), conn.(PollConn)
		if err := pe.SendPoll("s1", wire.Poll{CacheID: "edge", ObjectIDs: []string{"a", "b"}}); err != nil {
			t.Fatal(err)
		}
		select {
		case p := <-pc.Polls():
			if p.CacheID != "edge" || len(p.ObjectIDs) != 2 {
				t.Errorf("poll drifted: %+v", p)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("poll not received")
		}
		if err := pc.SendReply(wire.PollReply{SourceID: "s1", Items: []wire.PollItem{
			{ObjectID: "a", Exists: true, Value: 1.5, Version: 3},
		}}); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-pe.Replies():
			if r.SourceID != "s1" || len(r.Items) != 1 || r.Items[0].Value != 1.5 {
				t.Errorf("reply drifted: %+v", r)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("reply not received")
		}
	})
}

// TestBinaryRequiredFailsAgainstLegacyServer: a server that does not accept
// the prologue — here one that, like a pre-codec daemon, closes the
// connection on the magic byte — fails the dial; there is nothing to fall
// back to.
func TestBinaryRequiredFailsAgainstLegacyServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for conn, err := ln.Accept(); err == nil; conn, err = ln.Accept() {
			conn.Read(make([]byte, 1))
			conn.Close()
		}
	}()
	if conn, err := Dial(ln.Addr().String(), "s1"); err == nil {
		conn.Close()
		t.Fatal("dial succeeded against a server that never accepted the prologue")
	}
}

// rawBinaryHandshake opens a raw binary-codec connection to addr and
// completes the prologue + hello + echo exchange, returning the socket for
// hostile follow-up bytes.
func rawBinaryHandshake(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var enc codec.Encoder
	buf := append([]byte{codec.Magic, codec.Version}, enc.AppendHello(nil, wire.Hello{SourceID: "s1"})...)
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var echo [2]byte
	if _, err := io.ReadFull(conn, echo[:]); err != nil || echo != [2]byte{codec.Magic, codec.Version} {
		t.Fatalf("no binary accept echo: %v %x", err, echo)
	}
	return conn
}

// expectConnClosed asserts the server tears the connection down within the
// given time (the contract for every codec decode error: the frame boundary
// is gone).
func expectConnClosed(t *testing.T, conn net.Conn, within time.Duration) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(within))
	var one [1]byte
	if _, err := conn.Read(one[:]); err == nil {
		t.Fatal("server kept the connection open after a malformed frame")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("server neither closed the connection nor erred within %v", within)
	}
}

// TestServerClosesConnOnGarbageFrame: after a clean handshake, an undecodable
// frame kind must kill the connection, not desynchronize the stream.
func TestServerClosesConnOnGarbageFrame(t *testing.T) {
	_, addr := serveTCP(t)
	conn := rawBinaryHandshake(t, addr)
	defer conn.Close()
	if _, err := conn.Write([]byte{0x7e, 0x03, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	expectConnClosed(t, conn, 2*time.Second)
}

// TestServerClosesConnOnOversizedFrame: a length prefix past the size cap is
// rejected before allocation and the connection dies.
func TestServerClosesConnOnOversizedFrame(t *testing.T) {
	_, addr := serveTCP(t)
	conn := rawBinaryHandshake(t, addr)
	defer conn.Close()
	// KindBatch claiming a 2 GiB payload in 5 bytes.
	if _, err := conn.Write([]byte{codec.KindBatch, 0x80, 0x80, 0x80, 0x80, 0x08}); err != nil {
		t.Fatal(err)
	}
	expectConnClosed(t, conn, 2*time.Second)
}

// expectRefused opens a raw connection to srv at addr, writes sent, and
// asserts the server closes it within the given time without registering a
// source.
func expectRefused(t *testing.T, srv CacheEndpoint, addr string, sent []byte, within time.Duration) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(sent); err != nil {
		t.Fatal(err)
	}
	expectConnClosed(t, conn, within)
	if ids := srv.Sources(); len(ids) != 0 {
		t.Errorf("refused connection registered as %v", ids)
	}
}

// TestServerClosesConnOnFutureCodecVersion: a prologue with an unknown
// version byte is refused by closing the connection; there is no fallback.
func TestServerClosesConnOnFutureCodecVersion(t *testing.T) {
	srv, addr := serveTCP(t)
	expectRefused(t, srv, addr, []byte{codec.Magic, 0x7f}, 2*time.Second)
}

// TestServerClosesConnOnNonBinaryPrologue: a stream whose first byte is not
// codec.Magic — here the opening of a pre-codec client, whose first byte is
// a message length — is refused at once, well inside the handshake deadline.
func TestServerClosesConnOnNonBinaryPrologue(t *testing.T) {
	srv, addr := serveTCP(t)
	expectRefused(t, srv, addr, []byte{0x2c, 0x7f, 0x03, 0x01, 0x01, 0x05, 'H', 'e', 'l', 'l', 'o'}, handshakeTimeout/2)
}

// TestServerClosesStalledHandshake: a peer that connects and then sends
// nothing, or half a Hello, is dropped when the handshake deadline expires.
func TestServerClosesStalledHandshake(t *testing.T) {
	srv, addr := serveTCP(t)
	var enc codec.Encoder
	hello := enc.AppendHello(nil, wire.Hello{SourceID: "stalled-source"})
	for name, sent := range map[string][]byte{
		"silent":          nil,
		"truncated-hello": append([]byte{codec.Magic, codec.Version}, hello[:len(hello)-3]...),
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			expectRefused(t, srv, addr, sent, 5*time.Second)
		})
	}
}

// TestBatcherUsesFrameSender: through a Batcher over a TCP connection,
// flushed batches travel as pre-encoded frames and still arrive intact.
func TestBatcherUsesFrameSender(t *testing.T) {
	srv, addr := serveTCP(t)
	raw, err := Dial(addr, "s1")
	if err != nil {
		t.Fatal(err)
	}
	conn := NewBatcher(raw, BatcherConfig{MaxBatch: 2, FlushEvery: time.Hour})
	defer conn.Close()

	for _, id := range []string{"a", "b"} {
		if err := conn.SendRefresh(wire.Refresh{SourceID: "s1", ObjectID: id, Version: 1}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case b := <-srv.Batches():
		if len(b.Refreshes) != 2 || b.Refreshes[0].ObjectID != "a" || b.Refreshes[1].ObjectID != "b" {
			t.Errorf("frame-path batch drifted: %+v", b.Refreshes)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("frame-path batch not delivered")
	}
}

// writeCounter is a TCP connection that counts its Write calls. Its
// embedded connection still takes a net.Buffers write as one writev, which
// does not pass through Write.
type writeCounter struct {
	*net.TCPConn
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.TCPConn.Write(p)
}

// TestSendFramesOneWrite: a run of three frames goes to the socket in one
// writev, not a Write per frame, and its bytes are exactly those of three
// SendFrame calls.
func TestSendFramesOneWrite(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	read := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			read <- nil
			return
		}
		b, _ := io.ReadAll(conn)
		conn.Close()
		read <- b
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	wc := &writeCounter{TCPConn: raw.(*net.TCPConn)}
	c := &tcpClient{conn: wc}

	frames := make([]*codec.Frame, 3)
	var want []byte
	for i := range frames {
		frames[i] = codec.NewBatchFrame(refreshes("s1", i+1), int64(i))
		defer frames[i].Release()
		want = append(want, frames[i].Bytes()...)
	}
	if err := c.SendFrames(frames); err != nil {
		t.Fatal(err)
	}
	if wc.writes != 0 {
		t.Fatalf("the run took %d Write calls, want one writev", wc.writes)
	}
	for _, f := range frames {
		if err := c.SendFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if wc.writes != len(frames) {
		t.Fatalf("three SendFrame calls took %d writes, want 3", wc.writes)
	}
	c.Close()
	got := <-read
	if string(got) != string(want)+string(want) {
		t.Fatalf("the run and three SendFrame calls wrote %d bytes, want the same %d twice", len(got), len(want))
	}
}

// TestSendFramesFailureCloses: a run write that fails closes the
// connection, so no later send can interleave into a torn frame.
func TestSendFramesFailureCloses(t *testing.T) {
	_, addr := serveTCP(t)
	conn, err := Dial(addr, "s1")
	if err != nil {
		t.Fatal(err)
	}
	c := conn.(*tcpClient)
	f := codec.NewBatchFrame(refreshes("s1", 2), 1)
	defer f.Release()
	c.conn.SetWriteDeadline(time.Now().Add(-time.Second)) // every write now fails
	if err := c.SendFrames([]*codec.Frame{f, f}); err == nil {
		t.Fatal("a run write past its deadline succeeded")
	}
	c.conn.SetWriteDeadline(time.Time{})
	if err := c.SendFrame(f); err == nil {
		t.Fatal("a send after a failed run write succeeded: the connection was not closed")
	}
	select {
	case _, ok := <-conn.Feedback():
		if ok {
			t.Fatal("feedback arrived on a closed connection")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the read loop never saw the connection close")
	}
}
