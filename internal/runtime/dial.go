package runtime

import (
	"slices"
	"sync"

	"bestsync/internal/transport"
	"bestsync/internal/wire"
)

// deadConn stands in for a destination that could not be dialed at
// construction: every send fails and the feedback (and poll) channels are
// already closed, so the owning session falls straight into its
// redial-with-backoff loop and connects once the peer comes up.
type deadConn struct {
	fb    chan wire.Feedback
	polls chan wire.Poll
}

func newDeadConn() *deadConn {
	c := &deadConn{fb: make(chan wire.Feedback), polls: make(chan wire.Poll)}
	close(c.fb)
	close(c.polls)
	return c
}

func (c *deadConn) SendRefresh(wire.Refresh) error { return transport.ErrClosed }
func (c *deadConn) SendBatch([]wire.Refresh) error { return transport.ErrClosed }
func (c *deadConn) Feedback() <-chan wire.Feedback { return c.fb }
func (c *deadConn) Polls() <-chan wire.Poll        { return c.polls }
func (c *deadConn) SendReply(wire.PollReply) error { return transport.ErrClosed }
func (c *deadConn) Close() error                   { return nil }

// DialDestinations dials every address and builds the fan-out destinations
// a daemon passes to NewFanoutSource or NewNode: each connection is used
// as dialed — its group cuts and pre-encodes the batches, sent through the
// TCP client's FrameSender path — and gets a Redial closure that re-dials
// the same address, so sessions survive peer restarts. weights[i] is the
// destination's Section 7 share weight (0 or a nil slice = default, equal
// shares).
//
// An address that cannot be dialed right now does NOT fail the whole set —
// a node must not refuse to boot because one peer is down when its sessions
// can redial with backoff anyway. Such destinations start on a dead stub
// connection (the session connects on its first redial) and are returned in
// deferred so the caller can log them.
//
// Addresses are dialed concurrently (bounded at dialConcurrency) so a
// 1k-destination boot takes one connect round-trip, not the sum of them;
// the returned destinations keep the address order, and deferred is sorted
// for stable logs.
//
// This is the one place the sourceagent and cachesyncd daemons build their
// destination sets, so the dial/redial semantics cannot drift between them.
func DialDestinations(addrs []string, weights []float64, sourceID string) (dests []Destination, deferred []string) {
	dests = make([]Destination, len(addrs))
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex // guards deferred
		sem = make(chan struct{}, dialConcurrency)
	)
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			w := 0.0
			if weights != nil {
				w = weights[i]
			}
			redial := func() (transport.SourceConn, error) { return transport.Dial(addr, sourceID) }
			conn, err := redial()
			if err != nil {
				conn = newDeadConn()
				mu.Lock()
				deferred = append(deferred, addr)
				mu.Unlock()
			}
			dests[i] = Destination{CacheID: addr, Conn: conn, Weight: w, Redial: redial}
		}(i, addr)
	}
	wg.Wait()
	slices.Sort(deferred)
	return dests, deferred
}

// dialConcurrency bounds the parallel connection attempts DialDestinations
// and transport.DialAll make at once — enough to amortize connect latency
// across a 10k-destination boot without an unbounded goroutine/file-
// descriptor burst.
const dialConcurrency = 64
