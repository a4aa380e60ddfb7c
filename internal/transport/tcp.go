package transport

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bestsync/internal/wire"
	"bestsync/internal/wire/codec"
)

// tcpServer implements CacheEndpoint (and PollEndpoint) over TCP. Each
// source opens one connection, sends the prologue {codec.Magic,
// codec.Version} and a wire.Hello, then streams wire.CacheBound envelopes —
// each carrying either a refresh batch (push policy) or a poll reply (poll
// policies); a single refresh travels as a batch of one. The server echoes
// the prologue to accept and streams wire.SourceBound envelopes (feedback or
// polls) the other way on the same connection. Every frame is in the binary
// codec (internal/wire/codec); a connection that opens with anything else is
// closed.
type tcpServer struct {
	ln      net.Listener
	batches chan InboundBatch
	replies chan wire.PollReply
	retain  atomic.Bool // FrameRetainer: keep inbound binary batch frames

	mu      sync.Mutex
	conns   map[string]*tcpServerConn
	sources []string // conns' ids: the Sources snapshot, replaced on change
	closed  bool
	wg      sync.WaitGroup
}

type tcpServerConn struct {
	conn net.Conn
	caps uint64 // Hello capability bits
	mu   sync.Mutex
	benc codec.Encoder
	wbuf []byte // reusable frame buffer, guarded by mu; see codec.KeepBuffer
}

// sendEnv writes one cache→source envelope. An encode error (malformed
// envelope) is reported without writing anything, so the stream stays
// framed; a write error means an unknowable number of frame bytes reached
// the socket, so the connection is closed — the client's read loop observes
// it and redials.
func (sc *tcpServerConn) sendEnv(env wire.SourceBound) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	buf, err := sc.benc.AppendSourceBound(sc.wbuf[:0], env)
	sc.wbuf = codec.KeepBuffer(sc.wbuf, buf)
	if err != nil {
		return err
	}
	if _, err := sc.conn.Write(buf); err != nil {
		sc.conn.Close()
		return err
	}
	return nil
}

// Serve wraps a listener as a cache endpoint and starts accepting source
// connections. buffer sizes the shared batch channel (the back-pressure
// point standing in for network queueing).
func Serve(ln net.Listener, buffer int) CacheEndpoint {
	if buffer < 1 {
		buffer = 1
	}
	s := &tcpServer{
		ln:      ln,
		batches: make(chan InboundBatch, buffer),
		replies: make(chan wire.PollReply, buffer),
		conns:   map[string]*tcpServerConn{},
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

func (s *tcpServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// handshake reads the prologue and the Hello, then echoes the prologue as
// the accept signal — written before the connection is registered, so it
// always precedes any sendDown frame. The first byte that differs from the
// prologue fails the handshake: there is no other encoding to fall back to.
func handshake(conn net.Conn, br *bufio.Reader) (wire.Hello, *codec.Decoder, error) {
	for _, want := range [2]byte{codec.Magic, codec.Version} {
		b, err := br.ReadByte()
		if err != nil {
			return wire.Hello{}, nil, err
		}
		if b != want {
			return wire.Hello{}, nil, fmt.Errorf("transport: not a binary-codec stream (byte 0x%02x, want 0x%02x)", b, want)
		}
	}
	dec := codec.NewDecoder(br)
	hello, err := dec.ReadHello()
	if err != nil {
		return wire.Hello{}, nil, err
	}
	if err := hello.Validate(); err != nil {
		return wire.Hello{}, nil, err
	}
	if _, err := conn.Write([]byte{codec.Magic, codec.Version}); err != nil {
		return wire.Hello{}, nil, err
	}
	return hello, dec, nil
}

// RetainFrames implements FrameRetainer. Retention applies to envelopes
// decoded after the call; in-flight envelopes on other goroutines keep the
// mode they were read under.
func (s *tcpServer) RetainFrames(on bool) { s.retain.Store(on) }

// Per-connection read buffers. The server reads batch frames, and its buffer
// is big enough that a batch-64 frame arrives in one read(2) instead of a
// dozen. The client reads only feedback and polls, and its buffer holds the
// largest routine one, a feedback carrying 256 held acks; a larger frame
// still reads through it, in more than one read(2).
const (
	readBufSize       = 64 << 10
	clientReadBufSize = 8 << 10
)

func (s *tcpServer) handle(conn net.Conn) {
	defer s.wg.Done()
	// A peer that connects and stalls mid-handshake must not pin this
	// goroutine and its socket: the handshake runs under the same deadline
	// the client gives it.
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	hello, dec, err := handshake(conn, bufio.NewReaderSize(conn, readBufSize))
	if err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	sc := &tcpServerConn{conn: conn, caps: hello.Capabilities}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	if old, dup := s.conns[hello.SourceID]; dup {
		old.conn.Close() // newest connection wins (source reconnect)
	}
	s.conns[hello.SourceID] = sc
	s.sources = slices.Collect(maps.Keys(s.conns))
	s.mu.Unlock()

	for {
		// Every decode error is terminal: the next frame boundary is
		// unknowable, so the connection is closed below.
		var env wire.CacheBound
		var frame *codec.Frame
		if s.retain.Load() {
			env, frame, err = dec.ReadCacheBoundRetained()
		} else {
			env, err = dec.ReadCacheBound()
		}
		if err != nil {
			break
		}
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			if frame != nil {
				frame.Release()
			}
			if env.Batch != nil {
				codec.ReleaseBatch(env.Batch)
			}
			break
		}
		switch {
		case env.Batch != nil:
			b := *env.Batch
			// Drop malformed refreshes but keep the rest of the batch; the
			// stream identity is authoritative for every refresh. Filtering
			// is in place and copies nothing until a refresh is actually
			// dropped; the identity stamp skips refreshes already carrying
			// it (with the decoder's string interning that comparison is a
			// pointer check), so a well-formed batch passes through without
			// a single struct copy or pointer write.
			//
			// Any mutation — a dropped refresh or a re-stamped SourceID —
			// desynchronizes the retained frame from the batch, so the frame
			// is released and the batch travels frameless (splice falls back
			// to re-encode). The invariant downstream code relies on: a
			// non-nil Frame encodes exactly Refreshes, in order.
			n := 0
			mutated := false
			for i := range b.Refreshes {
				r := &b.Refreshes[i]
				// Validate's three checks, inlined: the method has a value
				// receiver, and copying every refresh to validate it costs
				// more than the validation.
				if r.SourceID == "" || r.ObjectID == "" || r.Hops < 0 {
					mutated = true
					continue
				}
				if r.SourceID != hello.SourceID {
					r.SourceID = hello.SourceID
					mutated = true
				}
				if n != i {
					b.Refreshes[n] = *r
				}
				n++
			}
			b.Refreshes = b.Refreshes[:n]
			if frame != nil && (mutated || n == 0) {
				frame.Release()
				frame = nil
			}
			if len(b.Refreshes) == 0 {
				codec.ReleaseBatch(env.Batch)
				continue
			}
			s.batches <- InboundBatch{RefreshBatch: b, Frame: frame, decoded: env.Batch}
		case env.Reply != nil:
			// The decoder reuses its container on the next read, so the
			// reply is copied out; its Items are the receiver's to release.
			rp := *env.Reply
			rp.SourceID = hello.SourceID // stream identity is authoritative
			valid := rp.Items[:0]
			for _, it := range rp.Items {
				if it.ObjectID == "" {
					continue
				}
				valid = append(valid, it)
			}
			rp.Items = valid
			s.replies <- rp
		}
	}
	conn.Close()
	s.mu.Lock()
	if cur, ok := s.conns[hello.SourceID]; ok && cur == sc {
		delete(s.conns, hello.SourceID)
		s.sources = slices.Collect(maps.Keys(s.conns))
	}
	s.mu.Unlock()
}

// Batches implements CacheEndpoint.
func (s *tcpServer) Batches() <-chan InboundBatch { return s.batches }

// Replies implements PollEndpoint.
func (s *tcpServer) Replies() <-chan wire.PollReply { return s.replies }

// sendDown encodes one cache→source envelope on the named source's stream.
func (s *tcpServer) sendDown(sourceID string, env wire.SourceBound) error {
	s.mu.Lock()
	sc, ok := s.conns[sourceID]
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if !ok {
		return fmt.Errorf("transport: unknown source %q", sourceID)
	}
	return sc.sendEnv(env)
}

// SendFeedback implements CacheEndpoint.
func (s *tcpServer) SendFeedback(sourceID string, fb wire.Feedback) error {
	return s.sendDown(sourceID, wire.SourceBound{Feedback: &fb})
}

// SendPoll implements PollEndpoint.
func (s *tcpServer) SendPoll(sourceID string, p wire.Poll) error {
	return s.sendDown(sourceID, wire.SourceBound{Poll: &p})
}

// PeerServesPeers reports whether the named source's current connection
// advertised wire.CapPeer in its Hello. A poll scheduler consults this
// before attaching known-version hints (wire.Poll.Known) to targeted
// polls; a pre-peer decoder on the answering side would reject the
// trailing Known segment as a bad frame, so the hints are capability-gated.
func (s *tcpServer) PeerServesPeers(sourceID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc, ok := s.conns[sourceID]
	return ok && sc.caps&wire.CapPeer != 0
}

// Sources implements CacheEndpoint.
func (s *tcpServer) Sources() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sources
}

// Close implements CacheEndpoint.
func (s *tcpServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := s.conns
	s.conns, s.sources = map[string]*tcpServerConn{}, nil
	s.mu.Unlock()
	err := s.ln.Close()
	for _, sc := range conns {
		sc.conn.Close()
	}
	return err
}

// tcpClient implements SourceConn (and PollConn) over TCP, and FrameSender,
// the encode-once path a Batcher uses to hand over pre-encoded batches, with
// FrameRunSender, its one-write form for a run of them.
type tcpClient struct {
	conn net.Conn
	br   *bufio.Reader
	benc codec.Encoder
	wbuf []byte // reusable frame buffer, guarded by mu; see codec.KeepBuffer
	// run holds a frame run's byte slices and wv the copy WriteTo consumes,
	// both reused and guarded by mu: a field, not a local, so that handing
	// it to the connection's writev does not allocate.
	run   [][]byte
	wv    net.Buffers
	fb    chan wire.Feedback
	polls chan wire.Poll
	mu    sync.Mutex
	once  sync.Once
}

// handshakeTimeout bounds each side's wait for the other's half of the
// handshake: the client's wait for the accept echo, and the server's wait
// for the prologue and the Hello. A peer that connects and then stalls is
// dropped when it expires.
const handshakeTimeout = 3 * time.Second

// Dial connects a source to a cache daemon at addr: the prologue and the
// Hello frame go out in one write, then the server's prologue echo is the
// accept signal.
func Dial(addr, sourceID string) (SourceConn, error) {
	if sourceID == "" {
		return nil, fmt.Errorf("transport: empty source id")
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &tcpClient{
		conn:  conn,
		fb:    make(chan wire.Feedback, 4),
		polls: make(chan wire.Poll, 16),
	}
	buf := append(c.wbuf[:0], codec.Magic, codec.Version)
	c.wbuf = c.benc.AppendHello(buf, wire.Hello{SourceID: sourceID, Capabilities: DialCapabilities()})
	if _, err := conn.Write(c.wbuf); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	c.br = bufio.NewReaderSize(conn, clientReadBufSize)
	var echo [2]byte
	if _, err := io.ReadFull(c.br, echo[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: no binary-codec accept from %s: %w", addr, err)
	}
	if echo[0] != codec.Magic || echo[1] != codec.Version {
		conn.Close()
		return nil, fmt.Errorf("transport: bad binary-codec accept from %s: %x", addr, echo)
	}
	conn.SetReadDeadline(time.Time{})
	go c.readLoop()
	return c, nil
}

// dialAllConcurrency bounds DialAll's parallel connection attempts: enough
// to collapse a large fan-out boot into a few connect round-trips without
// an unbounded goroutine/file-descriptor burst.
const dialAllConcurrency = 64

// DialAll connects one source to several cache daemons, returning one
// connection per address in order — the raw material for a fan-out source
// (runtime.NewFanoutSource), which runs an independent sync session over
// each connection. Addresses are dialed concurrently (bounded); if any dial
// fails, every connection established is closed and the first error in
// address order is returned. Wrap each returned connection in its own
// Batcher when batching is wanted: batches never span caches.
func DialAll(addrs []string, sourceID string) ([]SourceConn, error) {
	conns := make([]SourceConn, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, dialAllConcurrency)
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c, err := Dial(addr, sourceID)
			if err != nil {
				errs[i] = err
				return
			}
			conns[i] = c
		}(i, addr)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			for _, c := range conns {
				if c != nil {
					c.Close()
				}
			}
			return nil, fmt.Errorf("transport: dialing %s: %w", addrs[i], err)
		}
	}
	return conns, nil
}

func (c *tcpClient) readLoop() {
	dec := codec.NewDecoder(c.br)
	for {
		env, err := dec.ReadSourceBound()
		if err != nil {
			break // terminal: close below
		}
		// The decoder reuses its containers on the next read, so the values
		// are copied into the channels; their slices are the receiver's to
		// release.
		switch {
		case env.Feedback != nil:
			select {
			case c.fb <- *env.Feedback:
			default:
				codec.ReleaseFeedback(env.Feedback)
			}
		case env.Poll != nil:
			select {
			case c.polls <- *env.Poll:
			default:
				// A source that has not drained its pending polls gains
				// nothing from a deeper backlog; the cache re-polls on its
				// period.
				codec.ReleasePoll(env.Poll)
			}
		}
	}
	c.closeConn()
	// readLoop is the only sender on fb and polls, so it is the only safe
	// closer: Close just tears down the connection, which lands here.
	close(c.fb)
	close(c.polls)
}

// SendRefresh implements SourceConn.
func (c *tcpClient) SendRefresh(r wire.Refresh) error {
	return c.SendBatch([]wire.Refresh{r})
}

// writeFrame writes pre-framed bytes under the send lock. A write error
// closes the connection: an unknowable number of frame bytes reached the
// socket, so the stream is no longer framed and the read loop must wind the
// connection down rather than let a later send interleave into a torn frame.
func (c *tcpClient) writeFrame(buf []byte) error {
	if _, err := c.conn.Write(buf); err != nil {
		c.closeConn()
		return err
	}
	return nil
}

// SendBatch implements SourceConn.
func (c *tcpClient) SendBatch(rs []wire.Refresh) error {
	if len(rs) == 0 {
		return nil
	}
	b := wire.RefreshBatch{Refreshes: rs, SentUnix: time.Now().UnixNano()}
	c.mu.Lock()
	defer c.mu.Unlock()
	buf := c.benc.AppendBatch(c.wbuf[:0], b)
	c.wbuf = codec.KeepBuffer(c.wbuf, buf)
	return c.writeFrame(buf)
}

// SendFrame implements FrameSender: the pre-encoded bytes go to the socket
// verbatim, so a batch encoded once (codec.NewBatchFrame) fans out to any
// number of connections without re-serializing.
func (c *tcpClient) SendFrame(f *codec.Frame) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writeFrame(f.Bytes())
}

// SendFrames implements FrameRunSender: the run goes to the socket in one
// writev, byte for byte what one SendFrame per frame would write.
func (c *tcpClient) SendFrames(fs []*codec.Frame) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	run := c.run[:0]
	for _, f := range fs {
		run = append(run, f.Bytes())
	}
	c.run, c.wv = run, run
	_, err := c.wv.WriteTo(c.conn)
	clear(run) // the frames go back to their pool after the call
	if err != nil {
		c.closeConn()
		return err
	}
	return nil
}

// SendReply implements PollConn.
func (c *tcpClient) SendReply(r wire.PollReply) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	buf := c.benc.AppendReply(c.wbuf[:0], r)
	c.wbuf = codec.KeepBuffer(c.wbuf, buf)
	return c.writeFrame(buf)
}

// Feedback implements SourceConn.
func (c *tcpClient) Feedback() <-chan wire.Feedback { return c.fb }

// Polls implements PollConn.
func (c *tcpClient) Polls() <-chan wire.Poll { return c.polls }

func (c *tcpClient) closeConn() {
	c.once.Do(func() {
		c.conn.Close()
	})
}

// Close implements SourceConn. The feedback channel closes once the read
// loop observes the dead connection.
func (c *tcpClient) Close() error {
	c.closeConn()
	return nil
}
