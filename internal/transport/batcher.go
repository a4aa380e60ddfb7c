package transport

import (
	"fmt"
	"sync"
	"time"

	"bestsync/internal/wire"
	"bestsync/internal/wire/codec"
)

// BatcherConfig tunes a Batcher.
type BatcherConfig struct {
	// MaxBatch is the batch size that triggers an immediate flush; the
	// goroutine whose send fills the batch performs the flush itself, so
	// back-pressure from the cache still lands on the sender. Default 64.
	MaxBatch int
	// FlushEvery bounds how long a partial batch may sit before it is
	// flushed by the background timer, i.e. the extra latency batching may
	// add to a refresh. Default 5 ms.
	FlushEvery time.Duration
}

// NewBatcher wraps conn so that individual SendRefresh calls are coalesced
// into wire.RefreshBatch envelopes: a flush happens as soon as MaxBatch
// refreshes are pending, or after FlushEvery for partial batches. A batch
// the caller already cut (SendBatch) is not held: it goes straight through,
// behind whatever singletons are pending. Refresh order is preserved.
// Closing the Batcher flushes whatever is pending and then closes the
// underlying connection.
//
// A flush error is returned to the send that triggered it; errors from
// timer-driven flushes are sticky and surface on the next SendRefresh —
// until a later flush or batch succeeds, which clears the error (a delivered
// batch proves the connection recovered, so new sends must be accepted
// again).
//
// Durability caveat: a nil SendBatch return means the batch was written,
// so a caller that commits protocol state on send success (a session
// group's sender worker) keeps commit-after-send through a Batcher. A nil
// SendRefresh return means "accepted for batching", not "delivered": a
// window of up to MaxBatch singletons that a dying connection can lose.
// Failed flushes are re-buffered and retried (last at Close), so the loss
// is confined to connections that never recover — the same guarantee as
// data in a kernel socket buffer when the peer dies.
func NewBatcher(conn SourceConn, cfg BatcherConfig) SourceConn {
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 64
	}
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = 5 * time.Millisecond
	}
	b := &batcher{
		conn: conn,
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go b.loop()
	return b
}

type batcher struct {
	conn SourceConn
	cfg  BatcherConfig

	mu      sync.Mutex // guards pending, err, closed
	pending []wire.Refresh
	err     error
	closed  bool

	flushMu sync.Mutex // serializes flushes so batches stay in order

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// SendRefresh implements SourceConn.
func (b *batcher) SendRefresh(r wire.Refresh) error {
	return b.append([]wire.Refresh{r})
}

// SendBatch implements SourceConn: it flushes the pending singletons, in
// order, then sends rs as its own batch before it returns. A batch that
// fails is returned to the caller, not buffered.
func (b *batcher) SendBatch(rs []wire.Refresh) error {
	if len(rs) == 0 {
		return nil
	}
	b.flushMu.Lock()
	defer b.flushMu.Unlock()
	b.mu.Lock()
	closed := b.closed
	b.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if err := b.flushLocked(); err != nil {
		return err
	}
	if err := b.sendBatch(rs); err != nil {
		return err
	}
	b.mu.Lock()
	b.err = nil
	b.mu.Unlock()
	return nil
}

func (b *batcher) append(rs []wire.Refresh) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	if b.err != nil {
		err := b.err
		b.mu.Unlock()
		return err
	}
	b.pending = append(b.pending, rs...)
	full := len(b.pending) >= b.cfg.MaxBatch
	b.mu.Unlock()
	if full {
		return b.flush()
	}
	return nil
}

// flush sends everything pending as one batch. Concurrent callers queue on
// flushMu, so a blocked downstream send stalls every sender — the
// back-pressure contract of the package doc.
//
// A failed batch is re-buffered (in order) rather than discarded: callers
// that were told their refresh was accepted must not lose it to a flush
// that failed after the fact, so the batch stays pending for later flush
// attempts — including the final one in Close. Growth is bounded: while
// the sticky error is set, new sends are rejected before buffering.
//
// A successful flush clears the sticky error: every flush drains the whole
// pending buffer (a failed batch re-prepends to it), so success proves the
// re-buffered backlog reached the connection and the transient fault is
// over. Without the clear, one failed timer-driven flush would poison the
// Batcher permanently — every future send erroring on a healthy connection
// (and, without a Redial hook, wedging the owning session forever).
func (b *batcher) flush() error {
	b.flushMu.Lock()
	defer b.flushMu.Unlock()
	return b.flushLocked()
}

// flushLocked is flush with flushMu held.
func (b *batcher) flushLocked() error {
	b.mu.Lock()
	rs := b.pending
	b.pending = nil
	b.mu.Unlock()
	if len(rs) == 0 {
		return nil
	}
	if err := b.sendBatch(rs); err != nil {
		b.mu.Lock()
		if b.err == nil {
			b.err = err
		}
		b.pending = append(rs, b.pending...)
		b.mu.Unlock()
		return err
	}
	b.mu.Lock()
	b.err = nil
	b.mu.Unlock()
	return nil
}

// sendBatch hands the batch to the connection, pre-encoded when it can take
// one: a TCP connection (FrameSender) receives a pooled codec.Frame, so the
// serialization cost is paid exactly once per batch — here, under flushMu —
// instead of per envelope inside the connection, and the same Frame shape
// lets a fan-out layer share one encoding across every destination holding
// the same batch.
func (b *batcher) sendBatch(rs []wire.Refresh) error {
	if fs, ok := b.conn.(FrameSender); ok {
		f := codec.NewBatchFrame(rs, time.Now().UnixNano())
		err := fs.SendFrame(f)
		f.Release()
		return err
	}
	return b.conn.SendBatch(rs)
}

func (b *batcher) loop() {
	defer close(b.done)
	ticker := time.NewTicker(b.cfg.FlushEvery)
	defer ticker.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-ticker.C:
			b.flush() // sticky error surfaces on the next send
		}
	}
}

// Feedback implements SourceConn.
func (b *batcher) Feedback() <-chan wire.Feedback { return b.conn.Feedback() }

// closedPolls is the poll channel handed out when the wrapped connection
// does not support polls: permanently closed, so a poll-mode session treats
// the connection as unable to serve and falls into its redial path instead
// of blocking forever.
var closedPolls = func() chan wire.Poll {
	ch := make(chan wire.Poll)
	close(ch)
	return ch
}()

// Polls implements PollConn by delegation. Poll requests are not batched —
// they are cache-paced and already amortized (one Poll names many objects).
func (b *batcher) Polls() <-chan wire.Poll {
	if pc, ok := b.conn.(PollConn); ok {
		return pc.Polls()
	}
	return closedPolls
}

// SendReply implements PollConn by delegation: a reply is already a batch
// (all answers to one poll travel in one envelope), so it bypasses the
// refresh coalescing buffer entirely.
func (b *batcher) SendReply(r wire.PollReply) error {
	pc, ok := b.conn.(PollConn)
	if !ok {
		return fmt.Errorf("transport: wrapped connection does not support polls")
	}
	return pc.SendReply(r)
}

// closeFlushWait bounds how long Close waits for the final flush before
// tearing the connection down anyway: a stalled peer (closed TCP window,
// cache that stopped draining) must not wedge shutdown.
const closeFlushWait = time.Second

// Close implements SourceConn: reject further sends, attempt a final flush
// of whatever is pending (bounded by closeFlushWait), then close the
// wrapped connection — which also unblocks a flush stuck in a TCP write.
// A failed or timed-out final flush surfaces in the returned error.
func (b *batcher) Close() error {
	var err error
	b.once.Do(func() {
		close(b.stop)
		<-b.done
		// Mark closed before flushing so a send racing Close gets
		// ErrClosed instead of a silently dropped refresh.
		b.mu.Lock()
		b.closed = true
		b.mu.Unlock()
		flushErr := make(chan error, 1)
		go func() { flushErr <- b.flush() }()
		select {
		case err = <-flushErr:
		case <-time.After(closeFlushWait):
			err = fmt.Errorf("transport: close timed out flushing pending batch")
		}
		if cerr := b.conn.Close(); err == nil {
			err = cerr
		}
	})
	return err
}
