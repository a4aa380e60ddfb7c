// Package codec is the hand-rolled binary wire format for the protocol
// messages (Refresh, RefreshBatch, Feedback, Poll, PollReply and the Hello
// handshake) — the one encoding of the TCP transport, and of cache snapshots
// (runtime.Cache.SaveSnapshot), which are a prologue followed by batch
// frames.
//
// # Frame layout
//
// A stream is a sequence of self-delimiting frames:
//
//	frame   := kind(1 byte) length(uvarint) payload(length bytes)
//	kind    := 0x01 Hello | 0x02 RefreshBatch | 0x03 PollReply
//	           | 0x04 Feedback | 0x05 Poll
//
// Payload fields are encoded in declaration order with four primitives:
//
//	uvarint := unsigned LEB128 (encoding/binary Uvarint), max 10 bytes
//	varint  := zigzag-folded uvarint (encoding/binary Varint)
//	string  := uvarint byte-length, then raw bytes
//	float64 := 8 bytes, little-endian IEEE 754 bit pattern
//	bool    := 1 byte, 0x00 false / 0x01 true
//
// See docs/algorithm-specifications.md §10 for the per-message field tables;
// testdata/golden/ pins the canonical encoding of every message type.
//
// # Stream prologue
//
// A stream starts with the two-byte prologue {Magic, Version}. A server
// answers by echoing it; a prologue with any other byte — another encoding,
// or a version this build cannot parse — is refused by closing the
// connection. There is no fallback encoding.
//
// # Hostile input
//
// The decoder never panics and never allocates proportionally to what a
// frame CLAIMS, only to what it actually carries: length prefixes are
// bounded by a configurable cap (ErrFrameTooLarge before any allocation),
// string lengths and element counts are checked against the bytes remaining
// in the already-read payload, and slices grow by append as elements decode
// rather than trusting the declared count. Nor does a large frame stay
// pinned after it: between frames the codec's buffers keep at most 64 KiB
// (KeepBuffer). Every error is one of ErrBadFrame,
// ErrFrameTooLarge or an underlying read error; a transport must treat any of
// them as fatal for the stream (framing is lost) and close the connection.
//
// # Decoded strings and paths
//
// A Decoder interns the short identifiers it decodes (≤ 64 bytes): a stream
// repeats its source id on every refresh and the object ids of its working
// set lap after lap, so a repeat costs a byte comparison, not an allocation.
// The table is sized by the stream, not by an option: it starts at 256 slots
// and grows by half — re-placing what it holds, so a cold sync does not miss
// twice — whenever a new string would fill it past ¾; it settles at 1⅓ to 2
// times the working set and never exceeds 65 536 slots. A slot is a one-byte
// tag and a 4-byte locator into a per-decoder arena that holds each id's
// bytes once; the arena stops at 4 MiB, so a peer that never repeats an id
// pins no more per connection than 65 536 separately allocated 64-byte
// strings would. Lookups probe linearly from a seeded hash of every byte and
// compare a slot's string only when its one-byte tag matches the hash's.
//
// The relay path of a refresh (Via) is decoded once per change, not once per
// refresh: a path equal to the previous one on the stream is returned as the
// same slice. That rests on the contract stated on wire.Refresh.Via — a path
// is immutable once set; whoever extends one copies it first — and the
// decoder hands out paths without spare capacity, so an append can never
// write into a shared one.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"strings"
)

// Prologue bytes. {Magic, Version} opens every stream in both directions
// (client sends, server echoes to accept) and every snapshot file.
const (
	// Magic marks a binary-codec stream.
	Magic byte = 0xB5
	// Version is the wire-format version. Unknown versions are rejected at
	// the handshake and by the snapshot loader; the format itself is pinned
	// by testdata/golden.
	Version byte = 0x01
)

// Frame kinds.
const (
	KindHello    byte = 0x01
	KindBatch    byte = 0x02 // RefreshBatch (cache-bound)
	KindReply    byte = 0x03 // PollReply (cache-bound)
	KindFeedback byte = 0x04 // Feedback (source-bound)
	KindPoll     byte = 0x05 // Poll (source-bound)
)

// DefaultMaxFrame caps a frame's declared payload length (16 MiB). Far above
// any legitimate frame (a 256-refresh batch is a few tens of KiB) yet small
// enough that a hostile length prefix cannot drive an allocation bomb.
const DefaultMaxFrame = 16 << 20

// maxRetainedBuffer bounds the capacity a connection's codec buffers keep
// between frames (KeepBuffer). 64 KiB is a TCP server's socket read buffer,
// and well above a full relayed batch frame (64 refreshes, about 7 KiB), so
// routine frames reuse one buffer.
const maxRetainedBuffer = 64 << 10

// KeepBuffer returns the buffer to keep for the next frame once a frame has
// been built or read in buf, which started as prev: buf, unless the frame
// grew it past 64 KiB; then prev, and the large buffer goes with its frame.
// A Decoder's payload buffer and an Encoder's scratch follow it, and so do
// the TCP transport's frame buffers, so that no connection pins the largest
// frame it ever carried — a discovery listing, or a hostile frame up to the
// size cap.
func KeepBuffer(prev, buf []byte) []byte {
	if cap(buf) > maxRetainedBuffer {
		return prev
	}
	return buf
}

// maxUvarintLen is the longest accepted uvarint encoding (10 bytes carries
// the full uint64 range).
const maxUvarintLen = binary.MaxVarintLen64

// Decode errors. Both are terminal for the stream: once a frame fails to
// parse, the byte boundary of the next frame is unknowable.
var (
	// ErrBadFrame reports a structurally invalid frame: unknown kind,
	// truncated payload, over-long varint, string or slice count exceeding
	// the payload, or trailing garbage after the last field.
	ErrBadFrame = errors.New("codec: malformed frame")
	// ErrFrameTooLarge reports a length prefix above the decoder's cap. It
	// is returned BEFORE any allocation happens.
	ErrFrameTooLarge = errors.New("codec: frame exceeds size cap")
)

// badFrame wraps ErrBadFrame with context; errors.Is(err, ErrBadFrame) holds.
func badFrame(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadFrame, fmt.Sprintf(format, args...))
}

// payload is a bounds-checked cursor over one frame's payload bytes. All
// reads return ErrBadFrame-wrapped errors instead of panicking; nothing here
// allocates except str() and via(), whose lengths are validated against the
// remaining bytes first (and which are usually resolved from the decoder's
// intern table instead of allocating at all).
type payload struct {
	b   []byte
	off int
	in  *internTable
}

func (p *payload) remaining() int { return len(p.b) - p.off }

// uvarint's single-byte fast path stays small enough to inline; most
// protocol integers (versions, counts, lengths, small epochs) fit one byte.
func (p *payload) uvarint() (uint64, error) {
	if p.off < len(p.b) {
		if c := p.b[p.off]; c < 0x80 {
			p.off++
			return uint64(c), nil
		}
	}
	return p.uvarintSlow()
}

func (p *payload) uvarintSlow() (uint64, error) {
	v, n := binary.Uvarint(p.b[p.off:])
	if n <= 0 {
		return 0, badFrame("truncated or over-long uvarint at offset %d", p.off)
	}
	p.off += n
	return v, nil
}

func (p *payload) varint() (int64, error) {
	if p.off < len(p.b) {
		if c := p.b[p.off]; c < 0x80 {
			p.off++
			return int64(c>>1) ^ -int64(c&1), nil // zigzag
		}
	}
	return p.varintSlow()
}

func (p *payload) varintSlow() (int64, error) {
	v, n := binary.Varint(p.b[p.off:])
	if n <= 0 {
		return 0, badFrame("truncated or over-long varint at offset %d", p.off)
	}
	p.off += n
	return v, nil
}

// raw reads one length-prefixed string's bytes without materializing it.
func (p *payload) raw() ([]byte, error) {
	n, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(p.remaining()) {
		return nil, badFrame("string length %d exceeds %d remaining payload bytes", n, p.remaining())
	}
	b := p.b[p.off : p.off+int(n)]
	p.off += int(n)
	return b, nil
}

func (p *payload) str() (string, error) {
	raw, err := p.raw()
	if err != nil {
		return "", err
	}
	if n := len(raw); n > 0 && n <= internLimit {
		return p.in.intern(raw), nil
	}
	return string(raw), nil
}

// strSlot is str for fields that are constant per stream (source/cache ids,
// origin): the dedicated slot hits without hashing.
func (p *payload) strSlot(slot *string) (string, error) {
	raw, err := p.raw()
	if err != nil {
		return "", err
	}
	if n := len(raw); n > 0 && n <= internLimit {
		return p.in.slot(slot, raw), nil
	}
	return string(raw), nil
}

// maxSharedVia bounds the relay paths the decoder remembers for sharing;
// longer ones (no legal topology produces them) are decoded afresh each time.
const maxSharedVia = 16

// via decodes a relay path: an element count, then that many ids. Every
// refresh of a stream normally arrived over the same route, so a path equal
// to the previous one decoded on this stream is returned as that SAME slice
// instead of a fresh copy per refresh. This rests on the immutability
// contract of wire.Refresh.Via: consumers never write to or append in place
// onto a path they were handed (the returned slices have no spare capacity,
// so an append always copies).
func (p *payload) via() ([]string, error) {
	n, err := p.count(1)
	if err != nil || n == 0 {
		return nil, err
	}
	if last := p.in.via; len(last) == n {
		start, same := p.off, true
		for i := 0; i < n && same; i++ {
			raw, err := p.raw()
			if err != nil {
				return nil, err
			}
			same = last[i] == string(raw)
		}
		if same {
			return last, nil
		}
		p.off = start
	}
	via := make([]string, 0, sliceCap(n, 64))
	share := n <= maxSharedVia
	for i := 0; i < n; i++ {
		v, err := p.str()
		if err != nil {
			return nil, err
		}
		share = share && len(v) <= internLimit
		via = append(via, v)
	}
	via = slices.Clip(via)
	if share {
		p.in.via = via
	}
	return via, nil
}

// internLimit bounds the string length eligible for interning; identifiers
// (source, cache and object ids) are short and repeat across the frames of a
// stream, long strings are rare enough that copying is fine.
const internLimit = 64

// Intern table sizing: the table starts at internMinSlots and grows by half,
// up to internMaxSlots, whenever a new string would fill it past ¾.
const (
	internMinSlots = 1 << 8
	internMaxSlots = 1 << 16
)

// Intern arena sizing. The bytes of the interned strings live in chunks of
// arenaChunk bytes, at most arenaMaxChunks of them: 4 MiB, as many bytes as
// a full table of internLimit-byte ids.
const (
	arenaChunk     = 1 << locOffBits
	arenaMaxChunks = internMaxSlots * internLimit / arenaChunk
)

// A locator packs where an interned string's bytes are in the arena into 32
// bits: the chunk index, the offset in the chunk (locOffBits), and the length
// minus one (locLenBits; a string of 1 to internLimit bytes).
const (
	locLenBits = 6
	locOffBits = 14
)

// internTable is a per-decoder cache of recently decoded strings. Protocol
// streams repeat the same identifiers frame after frame — the source id on
// every refresh, the object ids of the live working set — so resolving them
// from the table turns the dominant decode allocation (one string copy per
// id) into a byte comparison. The table is an optimization, never a
// correctness dependency: at its cap a new string replaces the one at its
// home slot instead of filling an empty one.
//
// A lookup probes linearly from a home slot drawn from the high half of a
// hash of every byte, seeded per process (internSeed): ids that share a
// suffix or a prefix spread over the table like any others, and a peer
// cannot pick ids that collide. Each slot keeps a one-byte tag of its
// string's hash (0 marks an empty slot), and the probe reads only tags until
// one matches, so the other strings on the path — same shape, same length,
// differing only in a digit — cost no byte comparison.
//
// A slot is its tag and a 4-byte locator; the string's bytes are stored once,
// appended to an arena of chunks. An interned string is a substring of its
// chunk, so it costs its own bytes and no header or allocation of its own,
// and it stays valid for as long as anyone holds it — which keeps its whole
// chunk alive, after the decoder too. Each chunk is a strings.Builder with
// its whole capacity reserved up front: the builder only appends, so the
// strings it has returned never change, and no unsafe conversion is needed.
//
// The table grows with the stream's working set: every object id of a
// round-robin stream over more objects than slots would otherwise miss on
// every frame. Growth re-places the strings already interned (a cold sync
// does not miss twice) and stops at internMaxSlots. The arena is
// append-only, so the bytes of a string replaced at the cap stay in it; it
// stops at arenaMaxChunks, and from then on a new string is allocated as if
// there were no table and is not kept. So whatever a peer sends, the table
// holds at most internMaxSlots slots and 4 MiB of string bytes per
// connection — less than the same number of separately allocated strings of
// internLimit bytes would take.
//
// Fields that are constant for a stream's lifetime (a refresh's source id,
// cache id and origin) additionally get dedicated single-entry slots, which
// hit without hashing at all, and the relay path of the previous refresh is
// kept whole (see payload.via).
type internTable struct {
	entries []uint32 // a locator per slot; nil until the first lookup
	tags    []uint8  // parallel to entries: a hash byte, never 0 where a string is
	used    int      // filled slots

	chunks []string        // the arena: each chunk's bytes so far
	cur    strings.Builder // the last chunk, being filled

	src, cache, origin string
	via                []string
}

// slot resolves b against a dedicated single-entry cache, falling back to
// the shared table on a miss. The comparison *s == string(b) does not
// allocate.
func (t *internTable) slot(s *string, b []byte) string {
	if *s == string(b) {
		return *s
	}
	v := t.intern(b)
	*s = v
	return v
}

// internSeed keys the intern hash. One seed per process: a peer cannot
// choose ids that collide.
var internSeed = maphash.MakeSeed()

// home returns the slot a string with hash h probes from — the high half of
// h scaled to the table — and its tag, a byte from the low half.
func (t *internTable) home(h uint64) (int, uint8) {
	return int(h >> 32 * uint64(len(t.tags)) >> 32), max(uint8(h), 1)
}

// at returns the string a locator points at.
func (t *internTable) at(loc uint32) string {
	off := loc >> locLenBits & (arenaChunk - 1)
	return t.chunks[loc>>(locLenBits+locOffBits)][off : off+loc&(1<<locLenBits-1)+1]
}

func (t *internTable) intern(b []byte) string {
	if t.entries == nil {
		t.grow()
	}
	h := maphash.Bytes(internSeed, b)
	i, tag := t.home(h)
	tags, entries := t.tags, t.entries[:len(t.tags)]
	j := i
	for tags[j] != 0 {
		// A tag collision only costs a comparison; s == string(b) does not
		// allocate.
		if tags[j] == tag {
			if s := t.at(entries[j]); s == string(b) {
				return s
			}
		}
		if j++; j == len(tags) {
			j = 0
		}
	}
	return t.add(h, j, b)
}

// add keeps b, whose hash is h and whose probe missed at the empty slot j,
// and returns it as a string: its bytes in the arena, or a fresh copy when
// the table does not keep it.
func (t *internTable) add(h uint64, j int, b []byte) string {
	i, tag := t.home(h)
	room := 4*t.used < 3*len(t.tags)
	grows := !room && len(t.tags) < internMaxSlots
	// At the cap and ¾ full a string replaces the one at its home slot, and
	// is not kept when that slot is empty: slots never empty and the table
	// never fills past ¾, so every other string stays on its probe path.
	if !room && !grows && t.tags[i] == 0 || !t.fits(len(b)) {
		return string(b)
	}
	loc := t.keep(b)
	switch {
	case room:
		t.entries[j], t.tags[j] = loc, tag
		t.used++
	case grows:
		t.grow()
		t.place(h, loc)
	default:
		t.entries[i], t.tags[i] = loc, tag
	}
	return t.at(loc)
}

// fits reports whether n more bytes fit in the arena: in the last chunk, or
// in a new one below the bound.
func (t *internTable) fits(n int) bool {
	return t.cur.Cap()-t.cur.Len() >= n || len(t.chunks) < arenaMaxChunks
}

// keep appends b, which fits, to the arena and returns its locator. A string
// never straddles two chunks: one that does not fit in the last chunk's
// remainder starts a new chunk.
func (t *internTable) keep(b []byte) uint32 {
	if t.cur.Cap()-t.cur.Len() < len(b) {
		t.cur = strings.Builder{}
		t.cur.Grow(arenaChunk)
		t.chunks = append(t.chunks, "")
	}
	off := t.cur.Len()
	t.cur.Write(b)
	c := len(t.chunks) - 1
	t.chunks[c] = t.cur.String()
	return uint32(c)<<(locLenBits+locOffBits) | uint32(off)<<locLenBits | uint32(len(b)-1)
}

// place stores the locator of a string whose hash is h in the first empty
// slot from its home.
func (t *internTable) place(h uint64, loc uint32) {
	j, tag := t.home(h)
	for t.tags[j] != 0 {
		if j++; j == len(t.tags) {
			j = 0
		}
	}
	t.entries[j], t.tags[j] = loc, tag
	t.used++
}

// grow enlarges the table by half, or makes the first one, re-placing what it
// holds. Growing by half rather than doubling keeps a table that has just
// outgrown ¾ at most twice its working set.
func (t *internTable) grow() {
	old, oldTags := t.entries, t.tags
	n := min(max(len(old)+len(old)/2, internMinSlots), internMaxSlots)
	t.entries, t.tags, t.used = make([]uint32, n), make([]uint8, n), 0
	for i, loc := range old {
		if oldTags[i] != 0 {
			t.place(maphash.String(internSeed, t.at(loc)), loc)
		}
	}
}

func (p *payload) f64() (float64, error) {
	if p.remaining() < 8 {
		return 0, badFrame("truncated float64 at offset %d", p.off)
	}
	bits := binary.LittleEndian.Uint64(p.b[p.off:])
	p.off += 8
	return math.Float64frombits(bits), nil
}

func (p *payload) bool() (bool, error) {
	if p.remaining() < 1 {
		return false, badFrame("truncated bool at offset %d", p.off)
	}
	c := p.b[p.off]
	p.off++
	switch c {
	case 0x00:
		return false, nil
	case 0x01:
		return true, nil
	}
	return false, badFrame("bool byte 0x%02x at offset %d", c, p.off-1)
}

// count reads a slice element count and sanity-checks it against the bytes
// remaining: every element occupies at least minElem encoded bytes, so a
// count the payload cannot possibly hold is rejected before any element
// decodes (and before any allocation sized by it).
func (p *payload) count(minElem int) (int, error) {
	n, err := p.uvarint()
	if err != nil {
		return 0, err
	}
	// n ≤ remaining first (so the multiply below cannot overflow: remaining
	// is bounded by the frame cap), then the per-element minimum.
	rem := uint64(p.remaining())
	if n > rem || (minElem > 1 && n*uint64(minElem) > rem) {
		return 0, badFrame("element count %d exceeds %d remaining payload bytes", n, p.remaining())
	}
	return int(n), nil
}

// done verifies the cursor consumed the payload exactly; trailing bytes mean
// a framing bug or tampering and fail the frame.
func (p *payload) done() error {
	if p.off != len(p.b) {
		return badFrame("%d trailing bytes after last field", p.remaining())
	}
	return nil
}

// Append primitives (the encode side mirrors of payload's readers). The
// uvarint/varint helpers peel off the one-byte case — nearly every protocol
// integer — so the common path inlines to a bounds check and a store.

func appendUvarint(dst []byte, v uint64) []byte {
	if v < 0x80 {
		return append(dst, byte(v))
	}
	return binary.AppendUvarint(dst, v)
}

func appendVarint(dst []byte, v int64) []byte {
	if u := uint64(v<<1) ^ uint64(v>>63); u < 0x80 { // zigzag
		return append(dst, byte(u))
	}
	return binary.AppendVarint(dst, v)
}

func appendString(dst []byte, s string) []byte {
	if len(s) < 0x80 {
		dst = append(dst, byte(len(s)))
	} else {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
	}
	return append(dst, s...)
}

func appendF64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 0x01)
	}
	return append(dst, 0x00)
}
