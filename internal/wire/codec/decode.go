package codec

import (
	"bufio"
	"io"
	"sync"

	"bestsync/internal/wire"
)

// Decoder reads binary frames from a stream. It is not safe for concurrent
// use; the transports run exactly one reader goroutine per connection.
//
// The decoder is hostile-input-safe: any malformed, truncated or oversized
// frame yields ErrBadFrame / ErrFrameTooLarge (never a panic), and memory
// use is bounded by the size cap plus what the frame actually carries — a
// tiny frame CLAIMING a huge payload or element count is rejected before any
// allocation sized by the claim. All decode errors are terminal: the caller
// must close the connection, because the next frame boundary is unknowable.
//
// The control envelopes it returns — a Feedback, Poll or PollReply — are the
// decoder's own containers, overwritten by the next read: a caller copies
// the value out (the TCP read loops do, into their channels) before reading
// again. Their slices are not overwritten: each read takes fresh ones from
// bounded pools, and the holder of the value hands them back with
// ReleaseFeedback, ReleasePoll or ReleaseReply.
type Decoder struct {
	r      *bufio.Reader
	max    uint64
	buf    []byte // reusable payload buffer, kept by KeepBuffer
	intern internTable

	fb    wire.Feedback
	poll  wire.Poll
	reply wire.PollReply
}

// NewDecoder wraps r for frame reading with the DefaultMaxFrame size cap.
func NewDecoder(r io.Reader) *Decoder {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &Decoder{r: br, max: DefaultMaxFrame}
}

// SetMaxFrame overrides the payload-size cap (bytes). Frames whose length
// prefix exceeds it fail with ErrFrameTooLarge before any allocation.
func (d *Decoder) SetMaxFrame(n int) {
	if n > 0 {
		d.max = uint64(n)
	}
}

// readFrame reads one frame header and its payload into the reusable buffer,
// returning the kind and a cursor over the payload. io.EOF surfaces
// unchanged on a clean frame boundary; a partial frame reports ErrBadFrame
// (via io.ErrUnexpectedEOF mapping) or the underlying error.
func (d *Decoder) readFrame() (byte, payload, error) {
	kind, err := d.r.ReadByte()
	if err != nil {
		return 0, payload{}, err
	}
	length, err := readUvarint(d.r)
	if err != nil {
		if err == io.EOF {
			err = badFrame("stream ended after frame kind 0x%02x", kind)
		}
		return 0, payload{}, err
	}
	if length > d.max {
		return 0, payload{}, ErrFrameTooLarge
	}
	buf := d.buf
	if uint64(cap(buf)) < length {
		buf = make([]byte, length)
		d.buf = KeepBuffer(d.buf, buf)
	}
	buf = buf[:length]
	if _, err := io.ReadFull(d.r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, payload{}, badFrame("stream ended inside a %d-byte payload", length)
		}
		return 0, payload{}, err
	}
	return kind, payload{b: buf, in: &d.intern}, nil
}

// readUvarint is binary.ReadUvarint with the over-length encoding mapped to
// ErrBadFrame and truncation mapped consistently.
func readUvarint(r *bufio.Reader) (uint64, error) {
	var v uint64
	for i := 0; i < maxUvarintLen; i++ {
		c, err := r.ReadByte()
		if err != nil {
			if err == io.EOF && i > 0 {
				return 0, badFrame("stream ended inside a length prefix")
			}
			return 0, err
		}
		if c < 0x80 {
			if i == maxUvarintLen-1 && c > 1 {
				return 0, badFrame("length prefix overflows uint64")
			}
			return v | uint64(c)<<(7*i), nil
		}
		v |= uint64(c&0x7f) << (7 * i)
	}
	return 0, badFrame("length prefix longer than %d bytes", maxUvarintLen)
}

// ReadHello reads the stream-opening Hello frame.
func (d *Decoder) ReadHello() (wire.Hello, error) {
	kind, p, err := d.readFrame()
	if err != nil {
		return wire.Hello{}, err
	}
	if kind != KindHello {
		return wire.Hello{}, badFrame("expected hello frame, got kind 0x%02x", kind)
	}
	var h wire.Hello
	if h.SourceID, err = p.str(); err != nil {
		return wire.Hello{}, err
	}
	// Optional trailing capability bits (absent on legacy frames).
	if p.remaining() > 0 {
		if h.Capabilities, err = p.uvarint(); err != nil {
			return wire.Hello{}, err
		}
	}
	return h, p.done()
}

// ReadCacheBound reads the next source→cache envelope (a RefreshBatch or
// PollReply frame). A reply is the decoder's container, valid until the
// next read; its Items go back with ReleaseReply.
func (d *Decoder) ReadCacheBound() (wire.CacheBound, error) {
	kind, p, err := d.readFrame()
	if err != nil {
		return wire.CacheBound{}, err
	}
	switch kind {
	case KindBatch:
		b, err := decodeBatch(&p)
		if err != nil {
			return wire.CacheBound{}, err
		}
		return wire.CacheBound{Batch: b}, p.done()
	case KindReply:
		if err := decodeReply(&p, &d.reply); err != nil {
			return wire.CacheBound{}, err
		}
		return wire.CacheBound{Reply: &d.reply}, p.done()
	}
	return wire.CacheBound{}, badFrame("unexpected cache-bound frame kind 0x%02x", kind)
}

// ReadCacheBoundRetained is ReadCacheBound plus, for batch envelopes, a
// retained copy of the raw frame (one reference; Release when done). The
// copy is unavoidable — the decoder's read buffer is reused by the next
// frame — but it lands in a pooled Frame, so a relay's splice-forwarding
// path still allocates nothing in steady state. Reply envelopes and errors
// return a nil frame.
func (d *Decoder) ReadCacheBoundRetained() (wire.CacheBound, *Frame, error) {
	kind, p, err := d.readFrame()
	if err != nil {
		return wire.CacheBound{}, nil, err
	}
	switch kind {
	case KindBatch:
		b, err := decodeBatch(&p)
		if err != nil {
			return wire.CacheBound{}, nil, err
		}
		if err := p.done(); err != nil {
			return wire.CacheBound{}, nil, err
		}
		return wire.CacheBound{Batch: b}, newRetainedBatchFrame(p.b), nil
	case KindReply:
		if err := decodeReply(&p, &d.reply); err != nil {
			return wire.CacheBound{}, nil, err
		}
		return wire.CacheBound{Reply: &d.reply}, nil, p.done()
	}
	return wire.CacheBound{}, nil, badFrame("unexpected cache-bound frame kind 0x%02x", kind)
}

// newRetainedBatchFrame re-frames a decoded batch payload into a pooled
// Frame with one reference. The header is re-emitted (canonically) rather
// than copied — readFrame does not keep the header bytes.
func newRetainedBatchFrame(payload []byte) *Frame {
	f := framePool.Get().(*Frame)
	f.refs.Store(1)
	buf := append(f.buf[:0], KindBatch)
	buf = appendUvarint(buf, uint64(len(payload)))
	f.buf = append(buf, payload...)
	return f
}

// ReadSourceBound reads the next cache→source envelope (a Feedback or Poll
// frame) into the decoder's container for its kind, valid until the next
// read; its slices go back with ReleaseFeedback or ReleasePoll.
func (d *Decoder) ReadSourceBound() (wire.SourceBound, error) {
	kind, p, err := d.readFrame()
	if err != nil {
		return wire.SourceBound{}, err
	}
	switch kind {
	case KindFeedback:
		if err := decodeFeedback(&p, &d.fb); err != nil {
			return wire.SourceBound{}, err
		}
		return wire.SourceBound{Feedback: &d.fb}, p.done()
	case KindPoll:
		if err := decodePoll(&p, &d.poll); err != nil {
			return wire.SourceBound{}, err
		}
		return wire.SourceBound{Poll: &d.poll}, p.done()
	}
	return wire.SourceBound{}, badFrame("unexpected source-bound frame kind 0x%02x", kind)
}

// sliceCap clamps the initial capacity of a decoded slice: growth beyond it
// happens by append only as elements actually parse, so memory tracks the
// bytes received, not the count a hostile frame declares.
func sliceCap(n, clamp int) int {
	if n < clamp {
		return n
	}
	return clamp
}

// grow extends rs by one element without copying a struct through the
// stack: within capacity a reslice exposes the backing array as it is. That
// element may hold a released batch's stale refresh, which is sound only
// because decodeRefresh writes every field (TestDecodeIntoReusedBatch).
func grow(rs []wire.Refresh) []wire.Refresh {
	if len(rs) < cap(rs) {
		return rs[:len(rs)+1]
	}
	return append(rs, wire.Refresh{})
}

// maxPooledBatch is the largest refresh slice ReleaseBatch keeps: the
// decoder's initial-capacity clamp. A slice a frame grew past it by append is
// left to the GC, so one hostile frame cannot pin its backing array under
// every later 64-refresh decode.
const maxPooledBatch = 1024

// batchPool recycles decoded batches and their refresh slices, the way
// framePool serves Frame: a consumer that releases each batch it is handed
// makes the decode side allocation-free in steady state.
var batchPool = sync.Pool{New: func() any { return new(wire.RefreshBatch) }}

// ReleaseBatch hands a batch decoded by ReadCacheBound or
// ReadCacheBoundRetained back for reuse by a later decode. Neither the batch
// nor any slice of its Refreshes may be touched afterwards, and it must be
// released at most once. Strings and Via paths read out of the refreshes stay
// valid: they are never reused. A caller that never releases loses nothing
// but the reuse; the GC takes the batch.
func ReleaseBatch(b *wire.RefreshBatch) {
	if cap(b.Refreshes) > maxPooledBatch {
		return
	}
	b.Refreshes = b.Refreshes[:0]
	batchPool.Put(b)
}

// maxPooledControl is the longest Held, ObjectIDs, Known or Items slice the
// control Release functions keep: room for a feedback's full held-ack
// piggyback (256 acks) and for a routine targeted poll or reply. A longer
// slice — a discovery listing, or whatever a frame grew by append — is left
// to the GC, as ReleaseBatch leaves one past maxPooledBatch.
const maxPooledControl = 256

// maxFreeControl bounds how many released slices each control pool keeps:
// more than a steady stream has in flight, and at most about 1 MiB a pool,
// whatever the traffic was.
const maxFreeControl = 16

// controlPool is a bounded free list of the slices of decoded control frames.
// A free list and not a sync.Pool: a bare slice put into a sync.Pool boxes
// its header, and a pool whose puts and gets run on different Ps allocates
// chain links, either way about one allocation per frame.
type controlPool[T any] struct {
	mu   sync.Mutex
	free [][]T
}

var (
	heldPool  controlPool[wire.HeldVersion]
	idPool    controlPool[string]
	knownPool controlPool[wire.KnownVersion]
	itemPool  controlPool[wire.PollItem]
)

// get returns an empty slice for n elements: nil for none, a pooled one when
// n is routine, and otherwise one that starts at clamp and grows by append as
// elements decode, so memory tracks the bytes received.
func (cp *controlPool[T]) get(n, clamp int) []T {
	if n == 0 {
		return nil
	}
	if n > maxPooledControl {
		return make([]T, 0, sliceCap(n, clamp))
	}
	var s []T
	cp.mu.Lock()
	if k := len(cp.free); k > 0 {
		s, cp.free[k-1] = cp.free[k-1], nil
		cp.free = cp.free[:k-1]
	}
	cp.mu.Unlock()
	if cap(s) < n {
		s = make([]T, 0, max(n, min(2*cap(s), maxPooledControl)))
	}
	return s
}

// put keeps s for a later get, cleared so that it pins no decoded string.
func (cp *controlPool[T]) put(s []T) {
	if cap(s) == 0 || cap(s) > maxPooledControl {
		return
	}
	clear(s[:cap(s)])
	cp.mu.Lock()
	if len(cp.free) < maxFreeControl {
		cp.free = append(cp.free, s[:0])
	}
	cp.mu.Unlock()
}

// ReleaseFeedback hands fb.Held back for reuse by a later decode and clears
// it. Like ReleaseBatch it is for the one holder of a decoded value: no copy
// of the slice may be touched afterwards, and a slice is released at most
// once. Strings read out of it stay valid. Releasing a slice the caller
// built itself is fine; a holder that never releases loses only the reuse.
func ReleaseFeedback(fb *wire.Feedback) {
	heldPool.put(fb.Held)
	fb.Held = nil
}

// ReleasePoll hands p.ObjectIDs and p.Known back for reuse, under
// ReleaseFeedback's rule.
func ReleasePoll(p *wire.Poll) {
	idPool.put(p.ObjectIDs)
	knownPool.put(p.Known)
	p.ObjectIDs, p.Known = nil, nil
}

// ReleaseReply hands r.Items back for reuse, under ReleaseFeedback's rule.
// Via paths read out of the items stay valid: they are never reused.
func ReleaseReply(r *wire.PollReply) {
	itemPool.put(r.Items)
	r.Items = nil
}

func decodeBatch(p *payload) (*wire.RefreshBatch, error) {
	n, err := p.count(minRefreshEnc)
	if err != nil {
		return nil, err
	}
	b := batchPool.Get().(*wire.RefreshBatch)
	if n == 0 {
		b.Refreshes = nil // as a fresh decode has it
	} else if c := sliceCap(n, maxPooledBatch); cap(b.Refreshes) < c {
		b.Refreshes = make([]wire.Refresh, 0, c)
	}
	for i := 0; i < n; i++ {
		b.Refreshes = grow(b.Refreshes)
		if err := decodeRefresh(p, &b.Refreshes[len(b.Refreshes)-1]); err != nil {
			return nil, err
		}
	}
	if b.SentUnix, err = p.varint(); err != nil {
		return nil, err
	}
	return b, nil
}

func decodeRefresh(p *payload, r *wire.Refresh) error {
	var err error
	if r.SourceID, err = p.strSlot(&p.in.src); err != nil {
		return err
	}
	if r.ObjectID, err = p.str(); err != nil {
		return err
	}
	if r.CacheID, err = p.strSlot(&p.in.cache); err != nil {
		return err
	}
	if r.Origin, err = p.strSlot(&p.in.origin); err != nil {
		return err
	}
	hops, err := p.varint()
	if err != nil {
		return err
	}
	r.Hops = int(hops)
	if r.Via, err = p.via(); err != nil {
		return err
	}
	if r.OriginEpoch, err = p.varint(); err != nil {
		return err
	}
	if r.OriginVersion, err = p.uvarint(); err != nil {
		return err
	}
	if r.Value, err = p.f64(); err != nil {
		return err
	}
	if r.Version, err = p.uvarint(); err != nil {
		return err
	}
	if r.Epoch, err = p.varint(); err != nil {
		return err
	}
	if r.Threshold, err = p.f64(); err != nil {
		return err
	}
	if r.SentUnix, err = p.varint(); err != nil {
		return err
	}
	return nil
}

// minItemEnc is the smallest encoded PollItem: empty object id (1), bool
// (1), value (8), version (1), epoch (1), last-modified (1).
const minItemEnc = 1 + 1 + 8 + 1 + 1 + 1

// decodeReply decodes a PollReply into r, overwriting every field; its
// Items come from itemPool.
func decodeReply(p *payload, r *wire.PollReply) error {
	*r = wire.PollReply{}
	var err error
	if r.SourceID, err = p.str(); err != nil {
		return err
	}
	if r.All, err = p.bool(); err != nil {
		return err
	}
	n, err := p.count(minItemEnc)
	if err != nil {
		return err
	}
	r.Items = itemPool.get(n, 1024)
	for i := 0; i < n; i++ {
		var it wire.PollItem
		if it.ObjectID, err = p.str(); err != nil {
			return err
		}
		if it.Exists, err = p.bool(); err != nil {
			return err
		}
		if it.Value, err = p.f64(); err != nil {
			return err
		}
		if it.Version, err = p.uvarint(); err != nil {
			return err
		}
		if it.Epoch, err = p.varint(); err != nil {
			return err
		}
		if it.LastModifiedUnix, err = p.varint(); err != nil {
			return err
		}
		r.Items = append(r.Items, it)
	}
	if r.SentUnix, err = p.varint(); err != nil {
		return err
	}
	// Optional trailing pushed-set segment (hybrid policy; absent on legacy
	// frames and on every reply with an empty push set — unless the
	// provenance segment below follows, which forces an explicit, possibly
	// zero-count, pushed segment first).
	if p.remaining() > 0 {
		np, err := p.count(1)
		if err != nil {
			return err
		}
		if np > 0 {
			r.Pushed = make([]string, 0, sliceCap(np, 4096))
			for i := 0; i < np; i++ {
				id, err := p.str()
				if err != nil {
					return err
				}
				r.Pushed = append(r.Pushed, id)
			}
		}
	}
	// Optional trailing per-item provenance segment (peer-capable answerers
	// only): entries are keyed by item index, strictly increasing.
	if p.remaining() > 0 {
		np, err := p.count(minItemProvEnc)
		if err != nil {
			return err
		}
		last := -1
		for i := 0; i < np; i++ {
			idx64, err := p.uvarint()
			if err != nil {
				return err
			}
			idx := int(idx64)
			if idx64 >= uint64(len(r.Items)) || idx <= last {
				return badFrame("poll-reply provenance index %d out of order or range (items %d)", idx64, len(r.Items))
			}
			last = idx
			it := &r.Items[idx]
			if it.Origin, err = p.strSlot(&p.in.origin); err != nil {
				return err
			}
			hops, err := p.varint()
			if err != nil {
				return err
			}
			it.Hops = int(hops)
			if it.Via, err = p.via(); err != nil {
				return err
			}
			if it.OriginEpoch, err = p.varint(); err != nil {
				return err
			}
			if it.OriginVersion, err = p.uvarint(); err != nil {
				return err
			}
		}
	}
	return nil
}

// minItemProvEnc is the smallest encoded per-item provenance entry: item
// index (1), empty origin (1), hops (1), via count (1), origin epoch (1),
// origin version (1).
const minItemProvEnc = 6

// minHeldEnc is the smallest encoded HeldVersion: empty object id (1),
// epoch (1), version (1).
const minHeldEnc = 3

// decodeFeedback decodes a Feedback into fb, overwriting every field; its
// Held comes from heldPool.
func decodeFeedback(p *payload, fb *wire.Feedback) error {
	*fb = wire.Feedback{}
	var err error
	if fb.CacheID, err = p.str(); err != nil {
		return err
	}
	n, err := p.count(minHeldEnc)
	if err != nil {
		return err
	}
	fb.Held = heldPool.get(n, 512)
	for i := 0; i < n; i++ {
		var h wire.HeldVersion
		if h.ObjectID, err = p.str(); err != nil {
			return err
		}
		if h.Epoch, err = p.varint(); err != nil {
			return err
		}
		if h.Version, err = p.uvarint(); err != nil {
			return err
		}
		fb.Held = append(fb.Held, h)
	}
	fb.SentUnix, err = p.varint()
	return err
}

// decodePoll decodes a Poll into pl, overwriting every field; its ObjectIDs
// and Known come from idPool and knownPool.
func decodePoll(p *payload, pl *wire.Poll) error {
	*pl = wire.Poll{}
	var err error
	if pl.CacheID, err = p.str(); err != nil {
		return err
	}
	n, err := p.count(1)
	if err != nil {
		return err
	}
	pl.ObjectIDs = idPool.get(n, 4096)
	for i := 0; i < n; i++ {
		id, err := p.str()
		if err != nil {
			return err
		}
		pl.ObjectIDs = append(pl.ObjectIDs, id)
	}
	if pl.SentUnix, err = p.varint(); err != nil {
		return err
	}
	// Optional trailing known-version segment (peer-capable answerers only;
	// absent on legacy frames and on every hint-less poll).
	if p.remaining() > 0 {
		n, err := p.count(minKnownEnc)
		if err != nil {
			return err
		}
		pl.Known = knownPool.get(n, 4096)
		for i := 0; i < n; i++ {
			var k wire.KnownVersion
			if k.ObjectID, err = p.str(); err != nil {
				return err
			}
			if k.Origin, err = p.strSlot(&p.in.origin); err != nil {
				return err
			}
			if k.Epoch, err = p.varint(); err != nil {
				return err
			}
			if k.Version, err = p.uvarint(); err != nil {
				return err
			}
			pl.Known = append(pl.Known, k)
		}
	}
	return nil
}

// minKnownEnc is the smallest encoded KnownVersion: empty object id (1),
// empty origin (1), epoch (1), version (1).
const minKnownEnc = 4
