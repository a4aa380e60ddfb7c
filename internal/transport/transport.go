// Package transport connects live sources to the cache. Two implementations
// are provided: an in-process channel transport (Local) for embedding the
// whole system in one binary, and a TCP transport (Serve/Dial) speaking the
// binary codec (internal/wire/codec) for the cmd/cachesyncd and
// cmd/sourceagent daemons.
//
// # Batching
//
// The cache-facing side of every transport delivers wire.RefreshBatch
// envelopes, not individual refreshes: a single SendRefresh travels as a
// batch of one, and SendBatch (or a Batcher wrapping the connection) frames
// many refreshes into one envelope, amortizing the per-message encode and
// write syscall across the batch. Batches preserve the order refreshes
// were sent in, and a batch never mixes refreshes from different sources.
//
// # Back-pressure contract
//
// Delivery into the cache is bounded end to end. The shared batch channel
// returned by Batches() has a fixed capacity (the "network queue" of the
// paper's model); when the cache falls behind, the channel fills, the
// transport's reader goroutines stall, TCP windows close, and ultimately
// each source's SendRefresh/SendBatch call blocks. That blocking is the
// protocol's signal that the cache-side bandwidth is saturated — sources
// must not buffer unboundedly around it. A Batcher preserves the contract:
// once its pending buffer reaches the configured batch size, the sending
// goroutine performs the (possibly blocking) flush itself.
package transport

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"bestsync/internal/wire"
	"bestsync/internal/wire/codec"
)

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("transport: closed")

// InboundBatch is one refresh batch as delivered to the cache, optionally
// paired with the retained wire frame it arrived in. Frame is non-nil only
// when the endpoint was asked to retain frames (FrameRetainer), the batch
// arrived on a binary-codec stream, and the server's validate/stamp pass
// changed nothing — in which case Frame's encoded items correspond 1:1, in
// order, with Refreshes. Ownership of the frame reference transfers to the
// receiver, which must Release it (directly or by handing it to a consumer
// that does).
//
// A batch the TCP server decoded is a pooled codec object: the receiver owns
// it too, and calls Release once it is done with Refreshes.
type InboundBatch struct {
	wire.RefreshBatch
	Frame   *codec.Frame
	decoded *wire.RefreshBatch // the codec's pooled batch, nil if not decoded here
}

// Release hands a decoded batch back to the codec for the next frame.
// Refreshes, and every copy of this InboundBatch, must not be read after it;
// strings and Via paths already read out of the refreshes stay valid. It does
// not touch Frame, whose reference is released on its own. Release is a
// no-op for Local batches and for batches built by hand, and the GC takes a
// batch that is never released.
func (b *InboundBatch) Release() {
	if b.decoded != nil {
		codec.ReleaseBatch(b.decoded)
		b.decoded = nil
	}
}

// FrameRetainer is implemented by endpoints that can retain inbound binary
// frames alongside the decoded batch (the raw material for splice
// forwarding). Retention is off by default: a leaf cache that never
// re-exports pays nothing for the capability.
type FrameRetainer interface {
	// RetainFrames toggles frame retention for batches decoded after the
	// call. It is safe to call concurrently with the read loops.
	RetainFrames(bool)
}

// SourceConn is a source's connection to the cache.
type SourceConn interface {
	// SendRefresh transmits one refresh message (a batch of one on the
	// wire). It may block when the cache-side bandwidth is saturated —
	// that back-pressure is the network queue of the paper's model.
	SendRefresh(wire.Refresh) error
	// SendBatch transmits several refreshes in one framed envelope,
	// preserving slice order. It blocks under the same back-pressure
	// contract as SendRefresh. Empty batches are a no-op.
	SendBatch([]wire.Refresh) error
	// Feedback delivers positive-feedback messages from the cache. The
	// channel is closed when the connection closes. The one receiver of a
	// value owns its Held slice and may hand it back with
	// codec.ReleaseFeedback once done with it; a receiver that does not
	// loses only the reuse.
	Feedback() <-chan wire.Feedback
	// Close releases the connection.
	Close() error
}

// PollConn is the poll-path extension of SourceConn: a source connection
// that can also receive cache-driven polls and answer them. Both provided
// transports (Local and TCP) implement it, as does a Batcher wrapping one;
// the runtime's poll policies require it and reject connections without it.
// Push-only deployments never touch these methods. Like every send on a
// connection or endpoint, SendReply leaves the caller free to reuse every
// slice of its argument once it returns.
type PollConn interface {
	SourceConn
	// Polls delivers poll requests from the cache. The channel is closed
	// when the connection closes. The one receiver of a poll owns its
	// ObjectIDs and Known slices and may hand them back with
	// codec.ReleasePoll once it has answered.
	Polls() <-chan wire.Poll
	// SendReply transmits one poll reply (the batched answers to one poll).
	// It may block under the same back-pressure contract as SendRefresh.
	SendReply(wire.PollReply) error
}

// PollEndpoint is the poll-path extension of CacheEndpoint: a cache
// endpoint that can send polls to its connected sources and receive their
// replies. Both provided transports implement it. SendPoll follows
// SendFeedback's ownership rule.
type PollEndpoint interface {
	CacheEndpoint
	// SendPoll sends a poll request to one source. Unknown sources are an
	// error. Like feedback, a poll to a source that has not drained its
	// previous one may be dropped (polling is best-effort; the scheduler
	// re-polls on its period).
	SendPoll(sourceID string, p wire.Poll) error
	// Replies delivers incoming poll replies from every source. The one
	// receiver of a reply owns its Items slice and may hand it back with
	// codec.ReleaseReply once done with it. A wrapper that reads a reply and
	// passes it on hands that right on with it.
	Replies() <-chan wire.PollReply
}

// CacheEndpoint is the cache's view of all connected sources.
//
// Ownership: a down-send (SendFeedback, and PollEndpoint.SendPoll) encodes
// or copies what it keeps, so the caller may reuse every slice of its
// argument once the call returns.
type CacheEndpoint interface {
	// Batches delivers incoming refresh batches from every source. A
	// refresh sent individually arrives as a batch of one. The Frame field
	// is nil unless the endpoint retains frames (see FrameRetainer).
	Batches() <-chan InboundBatch
	// SendFeedback sends a positive-feedback message to one source (the
	// cache stamps its CacheID so fan-out sources can attribute it).
	// Unknown sources are an error; feedback to a disconnected source is
	// dropped.
	SendFeedback(sourceID string, fb wire.Feedback) error
	// Sources lists currently connected source ids. The slice is a shared
	// snapshot, replaced (never written) when a source connects or
	// disconnects, so a call does not allocate: callers must not write to it.
	Sources() []string
	// Close shuts the endpoint down.
	Close() error
}

// Local is an in-process network joining one cache endpoint with any number
// of source connections.
type Local struct {
	mu      sync.Mutex
	batches chan InboundBatch
	replies chan wire.PollReply
	conns   map[string]*localConn // the connected sources, by id
	sources []string              // conns' ids: the Sources snapshot, replaced on change
	closed  bool
}

// NewLocal creates an in-process network. buffer is the capacity of the
// shared batch channel — the "network queue"; sends beyond it block until
// the cache drains (back-pressure). The poll-reply channel shares the same
// capacity.
func NewLocal(buffer int) *Local {
	if buffer < 1 {
		buffer = 1
	}
	return &Local{
		batches: make(chan InboundBatch, buffer),
		replies: make(chan wire.PollReply, buffer),
		conns:   make(map[string]*localConn),
	}
}

// Batches implements CacheEndpoint. Local batches never carry a frame:
// nothing was ever encoded, so there is nothing to splice.
func (l *Local) Batches() <-chan InboundBatch { return l.batches }

// Replies implements PollEndpoint.
func (l *Local) Replies() <-chan wire.PollReply { return l.replies }

// SendPoll implements PollEndpoint. Like SendFeedback, the non-blocking
// send happens under the lock so it can never race a concurrent close; a
// source that has not drained its pending polls drops the new one (the
// scheduler re-polls on its period, so a dropped poll only delays one
// observation).
func (l *Local) SendPoll(sourceID string, p wire.Poll) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	c, ok := l.conns[sourceID]
	if !ok {
		return fmt.Errorf("transport: unknown source %q", sourceID)
	}
	p.ObjectIDs = append([]string(nil), p.ObjectIDs...)
	p.Known = append([]wire.KnownVersion(nil), p.Known...)
	select {
	case c.polls <- p:
	default:
	}
	return nil
}

// SendFeedback implements CacheEndpoint. The non-blocking send happens
// under the lock so it can never race a concurrent close of the channel.
func (l *Local) SendFeedback(sourceID string, fb wire.Feedback) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	c, ok := l.conns[sourceID]
	if !ok {
		return fmt.Errorf("transport: unknown source %q", sourceID)
	}
	fb.Held = append([]wire.HeldVersion(nil), fb.Held...)
	select {
	case c.fb <- fb:
	default:
		// A source that has not consumed its previous feedback gains
		// nothing from a second one queued behind it.
	}
	return nil
}

// PeerServesPeers reports whether the named source advertised wire.CapPeer
// when it dialed. A poll scheduler consults this before attaching
// known-version hints (wire.Poll.Known), which a pre-peer decoder would
// reject as a bad frame.
func (l *Local) PeerServesPeers(sourceID string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := l.conns[sourceID]
	return ok && c.caps&wire.CapPeer != 0
}

// Sources implements CacheEndpoint.
func (l *Local) Sources() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sources
}

// Close implements CacheEndpoint. It disconnects every source: a send
// blocked on the full network queue returns ErrClosed.
func (l *Local) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	for _, c := range l.conns {
		c.disconnectLocked()
	}
	clear(l.conns)
	l.sources = nil
	return nil
}

// localConn is a source-side handle onto a Local network. done is closed
// when it is disconnected — by its own Close or the network's — so a send
// waiting for room in the network queue gives up rather than wait for a
// reader that may never come.
type localConn struct {
	net   *Local
	id    string
	caps  uint64 // capability bits advertised at Dial
	fb    chan wire.Feedback
	polls chan wire.Poll
	done  chan struct{}
	once  sync.Once
}

// disconnectLocked ends c: its feedback and poll streams close and its
// blocked sends return. Caller holds c.net.mu and takes c out of the map.
func (c *localConn) disconnectLocked() {
	close(c.fb)
	close(c.polls)
	close(c.done)
}

// Dial attaches a new source to the network.
func (l *Local) Dial(sourceID string) (SourceConn, error) {
	if sourceID == "" {
		return nil, fmt.Errorf("transport: empty source id")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if _, dup := l.conns[sourceID]; dup {
		return nil, fmt.Errorf("transport: source %q already connected", sourceID)
	}
	c := &localConn{
		net: l, id: sourceID, caps: DialCapabilities(),
		fb: make(chan wire.Feedback, 4), polls: make(chan wire.Poll, 16), done: make(chan struct{}),
	}
	l.conns[sourceID] = c
	l.sources = slices.Collect(maps.Keys(l.conns))
	return c, nil
}

// SendRefresh implements SourceConn.
func (c *localConn) SendRefresh(r wire.Refresh) error {
	// The one-element slice is freshly owned, so no defensive copy is
	// needed on the unbatched hot path.
	return c.send([]wire.Refresh{r})
}

// SendBatch implements SourceConn.
func (c *localConn) SendBatch(rs []wire.Refresh) error {
	if len(rs) == 0 {
		return nil
	}
	// Copy: the caller (e.g. a Batcher) may reuse the slice after we
	// return, but the batch is consumed asynchronously.
	return c.send(append([]wire.Refresh(nil), rs...))
}

// send transfers ownership of rs to the cache side.
func (c *localConn) send(rs []wire.Refresh) error {
	b := InboundBatch{RefreshBatch: wire.RefreshBatch{Refreshes: rs, SentUnix: time.Now().UnixNano()}}
	return deliver(c.done, c.net.batches, b)
}

// deliver puts v on the network queue ch, waiting for room until done is
// closed. A connection already closed sends nothing, even when ch has room.
func deliver[T any](done <-chan struct{}, ch chan<- T, v T) error {
	select {
	case <-done:
		return ErrClosed
	default:
	}
	select {
	case ch <- v:
		return nil
	case <-done:
		return ErrClosed
	}
}

// Feedback implements SourceConn.
func (c *localConn) Feedback() <-chan wire.Feedback { return c.fb }

// Polls implements PollConn.
func (c *localConn) Polls() <-chan wire.Poll { return c.polls }

// SendReply implements PollConn: it transfers the reply to the cache side
// under the same bounded-channel back-pressure as refresh batches.
func (c *localConn) SendReply(r wire.PollReply) error {
	// Copy the slices: the reply is consumed asynchronously and the caller
	// may reuse them (same contract as SendBatch).
	r.Items = append([]wire.PollItem(nil), r.Items...)
	r.Pushed = append([]string(nil), r.Pushed...)
	return deliver(c.done, c.net.replies, r)
}

// Close implements SourceConn. A send blocked on the full network queue
// returns ErrClosed.
func (c *localConn) Close() error {
	c.once.Do(func() {
		c.net.mu.Lock()
		if c.net.conns[c.id] == c {
			c.disconnectLocked()
			delete(c.net.conns, c.id)
			c.net.sources = slices.Collect(maps.Keys(c.net.conns))
		}
		c.net.mu.Unlock()
	})
	return nil
}
