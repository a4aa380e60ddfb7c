package codec

import (
	"slices"
	"sync"
	"sync/atomic"

	"bestsync/internal/wire"
)

// Encoder builds binary frames by appending into caller-supplied buffers.
// The zero value is ready to use. An Encoder owns a reusable scratch buffer
// for the payload (frames are length-prefixed, so the payload is encoded
// before its header), which is why it is not safe for concurrent use — give
// each connection (or goroutine) its own; the transports keep one per
// connection under the connection's write lock, so steady-state encoding
// performs zero allocations. The scratch is kept by KeepBuffer.
type Encoder struct {
	scratch []byte
}

// appendFrame frames one message payload, encoded by appending to the
// encoder's scratch, into dst: kind, payload length, payload bytes. A dst
// that must grow past what KeepBuffer keeps grows to the frame's size at
// once, not by doubling.
func (e *Encoder) appendFrame(dst []byte, kind byte, payload []byte) []byte {
	e.scratch = KeepBuffer(e.scratch, payload)
	if n := 1 + maxUvarintLen + len(payload); cap(dst)-len(dst) < n && len(dst)+n > maxRetainedBuffer {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	dst = append(dst, kind)
	dst = appendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// AppendHello appends a Hello frame to dst and returns the extended buffer.
//
// Capabilities is an OPTIONAL TRAILING field: written only when non-zero, so
// a capability-less hello stays byte-identical to the pre-capability format
// (old decoders would reject the extra bytes as trailing garbage).
func (e *Encoder) AppendHello(dst []byte, h wire.Hello) []byte {
	s := appendString(e.scratch[:0], h.SourceID)
	if h.Capabilities != 0 {
		s = appendUvarint(s, h.Capabilities)
	}
	return e.appendFrame(dst, KindHello, s)
}

// AppendBatch appends a RefreshBatch frame to dst.
func (e *Encoder) AppendBatch(dst []byte, b wire.RefreshBatch) []byte {
	s := appendUvarint(e.scratch[:0], uint64(len(b.Refreshes)))
	for i := range b.Refreshes {
		s = appendRefresh(s, &b.Refreshes[i])
	}
	return e.appendFrame(dst, KindBatch, appendVarint(s, b.SentUnix))
}

// AppendReply appends a PollReply frame to dst. The payload's room is
// reserved up front from a bound on the items' size, so a discovery listing
// is encoded into one buffer rather than a chain of growing ones.
func (e *Encoder) AppendReply(dst []byte, r wire.PollReply) []byte {
	n := 3*maxUvarintLen + 1 + len(r.SourceID) // source id, All, item count, sent time
	for i := range r.Items {
		n += maxItemEnc + len(r.Items[i].ObjectID)
	}
	s := appendString(slices.Grow(e.scratch[:0], n), r.SourceID)
	s = appendBool(s, r.All)
	s = appendUvarint(s, uint64(len(r.Items)))
	for i := range r.Items {
		it := &r.Items[i]
		s = appendString(s, it.ObjectID)
		s = appendBool(s, it.Exists)
		s = appendF64(s, it.Value)
		s = appendUvarint(s, it.Version)
		s = appendVarint(s, it.Epoch)
		s = appendVarint(s, it.LastModifiedUnix)
	}
	s = appendVarint(s, r.SentUnix)
	// Pushed is an OPTIONAL TRAILING segment (hybrid policy only): written
	// only when non-empty so legacy replies stay byte-identical. When any
	// item carries origin provenance (a peer-capable node answering from
	// relayed state) a second trailing segment follows, and then Pushed is
	// ALWAYS written first — possibly with count 0 — so the two segments
	// stay unambiguous: a legacy encoder never emits a zero-count Pushed.
	nProv := 0
	for i := range r.Items {
		if itemHasProv(&r.Items[i]) {
			nProv++
		}
	}
	if len(r.Pushed) > 0 || nProv > 0 {
		s = appendUvarint(s, uint64(len(r.Pushed)))
		for _, id := range r.Pushed {
			s = appendString(s, id)
		}
	}
	if nProv > 0 {
		s = appendUvarint(s, uint64(nProv))
		for i := range r.Items {
			it := &r.Items[i]
			if !itemHasProv(it) {
				continue
			}
			s = appendUvarint(s, uint64(i))
			s = appendString(s, it.Origin)
			s = appendVarint(s, int64(it.Hops))
			s = appendUvarint(s, uint64(len(it.Via)))
			for _, v := range it.Via {
				s = appendString(s, v)
			}
			s = appendVarint(s, it.OriginEpoch)
			s = appendUvarint(s, it.OriginVersion)
		}
	}
	return e.appendFrame(dst, KindReply, s)
}

// maxItemEnc bounds a PollItem's encoding but for its id bytes and its
// provenance: the id's length prefix, the bool, the float64 and three
// varints.
const maxItemEnc = maxUvarintLen + 1 + 8 + 3*maxUvarintLen

// itemHasProv reports whether a poll item carries relay provenance that the
// reply must encode in the trailing provenance segment.
func itemHasProv(it *wire.PollItem) bool {
	return it.Origin != "" || it.Hops != 0 || len(it.Via) > 0 ||
		it.OriginEpoch != 0 || it.OriginVersion != 0
}

// AppendFeedback appends a Feedback frame to dst.
func (e *Encoder) AppendFeedback(dst []byte, fb wire.Feedback) []byte {
	s := appendString(e.scratch[:0], fb.CacheID)
	s = appendUvarint(s, uint64(len(fb.Held)))
	for i := range fb.Held {
		h := &fb.Held[i]
		s = appendString(s, h.ObjectID)
		s = appendVarint(s, h.Epoch)
		s = appendUvarint(s, h.Version)
	}
	return e.appendFrame(dst, KindFeedback, appendVarint(s, fb.SentUnix))
}

// AppendPoll appends a Poll frame to dst.
func (e *Encoder) AppendPoll(dst []byte, p wire.Poll) []byte {
	s := appendString(e.scratch[:0], p.CacheID)
	s = appendUvarint(s, uint64(len(p.ObjectIDs)))
	for _, id := range p.ObjectIDs {
		s = appendString(s, id)
	}
	s = appendVarint(s, p.SentUnix)
	// Known is an OPTIONAL TRAILING segment (peer-capable answerers only):
	// written only when non-empty so legacy polls stay byte-identical.
	if len(p.Known) > 0 {
		s = appendUvarint(s, uint64(len(p.Known)))
		for i := range p.Known {
			k := &p.Known[i]
			s = appendString(s, k.ObjectID)
			s = appendString(s, k.Origin)
			s = appendVarint(s, k.Epoch)
			s = appendUvarint(s, k.Version)
		}
	}
	return e.appendFrame(dst, KindPoll, s)
}

// AppendCacheBound appends the envelope's one payload as a frame — the
// envelope itself has no wire presence; the frame kind IS the discriminator.
// Invalid envelopes (zero or two payloads) report ErrBadFrame.
func (e *Encoder) AppendCacheBound(dst []byte, env wire.CacheBound) ([]byte, error) {
	if err := env.Validate(); err != nil {
		return dst, badFrame("%v", err)
	}
	if env.Batch != nil {
		return e.AppendBatch(dst, *env.Batch), nil
	}
	return e.AppendReply(dst, *env.Reply), nil
}

// AppendSourceBound appends the envelope's one payload as a frame.
func (e *Encoder) AppendSourceBound(dst []byte, env wire.SourceBound) ([]byte, error) {
	if err := env.Validate(); err != nil {
		return dst, badFrame("%v", err)
	}
	if env.Feedback != nil {
		return e.AppendFeedback(dst, *env.Feedback), nil
	}
	return e.AppendPoll(dst, *env.Poll), nil
}

// minRefreshEnc is the smallest possible encoded refresh: four empty strings
// (1 byte each), three 1-byte varints (hops, origin epoch/version... ) — see
// appendRefresh for the field order. The decoder uses it to reject element
// counts a payload cannot possibly hold.
const minRefreshEnc = 4 + // four empty strings
	1 + // hops
	1 + // via count
	1 + 1 + // origin epoch, origin version
	8 + // value
	1 + 1 + // version, epoch
	8 + // threshold
	1 // sent

// appendRefresh appends one refresh's payload fields (no frame header;
// refreshes only travel inside batches).
func appendRefresh(dst []byte, r *wire.Refresh) []byte {
	dst = appendString(dst, r.SourceID)
	dst = appendString(dst, r.ObjectID)
	dst = appendString(dst, r.CacheID)
	dst = appendString(dst, r.Origin)
	dst = appendVarint(dst, int64(r.Hops))
	dst = appendUvarint(dst, uint64(len(r.Via)))
	for _, v := range r.Via {
		dst = appendString(dst, v)
	}
	dst = appendVarint(dst, r.OriginEpoch)
	dst = appendUvarint(dst, r.OriginVersion)
	dst = appendF64(dst, r.Value)
	dst = appendUvarint(dst, r.Version)
	dst = appendVarint(dst, r.Epoch)
	dst = appendF64(dst, r.Threshold)
	dst = appendVarint(dst, r.SentUnix)
	return dst
}

// framePool recycles pre-encoded frame buffers (Frame) so the encode-once
// fan-out path allocates nothing in steady state.
var framePool = sync.Pool{
	New: func() any { return &Frame{buf: make([]byte, 0, 4096)} },
}

// Frame is one pre-encoded wire frame: the exact bytes a binary connection
// writes to its socket. Encoding a batch into a Frame once and handing the
// same Frame to every destination is the encode-once half of fan-out — the
// per-destination cost drops to a write syscall.
//
// Frames are reference-counted pool objects: NewBatchFrame returns a Frame
// with one reference; call Retain before sharing it with another goroutine
// and Release when done. After the last Release the Frame (and its buffer)
// returns to the pool and must not be touched.
type Frame struct {
	buf  []byte
	refs atomic.Int32
	enc  Encoder // scratch travels with the pooled frame to stay reusable
}

// NewBatchFrame encodes one RefreshBatch into a pooled, pre-encoded Frame.
func NewBatchFrame(rs []wire.Refresh, sentUnix int64) *Frame {
	f := framePool.Get().(*Frame)
	f.refs.Store(1)
	f.buf = f.enc.AppendBatch(f.buf[:0], wire.RefreshBatch{Refreshes: rs, SentUnix: sentUnix})
	return f
}

// Bytes returns the frame's encoded bytes. The slice is only valid until the
// last Release.
func (f *Frame) Bytes() []byte { return f.buf }

// Retain adds a reference so a second holder can Release independently.
func (f *Frame) Retain() { f.refs.Add(1) }

// Release drops one reference; the last one returns the Frame to the pool.
func (f *Frame) Release() {
	if f.refs.Add(-1) == 0 {
		framePool.Put(f)
	}
}
