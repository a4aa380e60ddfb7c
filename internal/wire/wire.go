// Package wire defines the protocol messages exchanged between live sources
// and the cache (internal/runtime), independent of transport. All messages
// are small and fixed-shape; the TCP transport and cache snapshots encode
// them with the binary codec in internal/wire/codec.
//
// The message set mirrors Section 5 of the paper: refresh messages carry the
// new object value plus the source's piggybacked local threshold; feedback
// messages carry no payload of their own — receiving one *is* the signal to
// decrease the local threshold — but may piggyback held-version
// acknowledgements (Feedback.Held) so senders can skip re-sends the cache
// already holds. For multi-tier topologies (runtime.Node) a refresh also
// carries its originating source and a relay hop count, so loop-avoidance
// and per-tier attribution work across cache→cache re-exports.
//
// # Sync policies
//
// Refresh/Feedback are the messages of the paper's source-cooperative push
// policy. The cache-driven polling baseline of Section 6.3 (Cho &
// Garcia-Molina) uses its own pair instead: the cache sends Poll messages
// naming the objects it wants (an empty list asks for the whole store — the
// discovery poll), and the source answers with PollReply envelopes carrying
// value, version and last-modified time per object. Poll replies are
// batchable exactly like refresh batches. Which pair a node speaks is the
// runtime's pluggable sync policy (runtime.Policy); both transports frame
// all four messages.
//
// # Batching
//
// On the hot path refreshes travel inside RefreshBatch envelopes: a source
// (or a transport.Batcher wrapping its connection) coalesces consecutive
// refreshes into one batch, amortizing the per-message encode and syscall
// cost across the whole batch. A batch is purely a framing unit — it carries
// no protocol state of its own, and the refreshes inside it are applied
// individually, in order, with exactly the semantics they would have had as
// separate messages. Batches preserve per-source ordering; refreshes from
// different sources are never mixed in one batch by the provided transports.
//
// See docs/algorithm-specifications.md for the formal protocol
// specification.
package wire

import "fmt"

// Capability bits advertised in Hello.Capabilities. A peer that does not
// understand a bit ignores it; absence of a bit only ever costs optimization,
// never correctness.
const (
	// CapCooperative advertised a source that pushed the objects its replies
	// list in PollReply.Pushed. No runtime sets or reads it any more; the bit
	// stays reserved in the wire format until the next codec version.
	CapCooperative uint64 = 1 << 0

	// CapPeer advertises that the sender is a peer-capable node
	// (runtime.Node): its store may hold relayed values, so its poll replies
	// can carry per-item origin provenance (PollItem.Origin/Via/OriginEpoch/
	// OriginVersion), and it understands Poll.Known held-version hints. A
	// cache that sees it may attach Known entries to targeted polls; a cache
	// that does not must not (a pre-peer binary decoder rejects the trailing
	// segment as garbage).
	CapPeer uint64 = 1 << 1
)

// Hello is the first message on a source→cache stream, registering the
// source under a stable identifier.
//
// Capabilities is a bit set (Cap* constants) advertising optional protocol
// behaviours; zero — and every legacy frame, which simply omits the field —
// means none. Peers must tolerate unknown bits.
type Hello struct {
	SourceID     string
	Capabilities uint64
}

// Cooperates reports whether the hello advertises source cooperation.
func (h Hello) Cooperates() bool { return h.Capabilities&CapCooperative != 0 }

// ServesPeers reports whether the hello advertises a peer-capable node.
func (h Hello) ServesPeers() bool { return h.Capabilities&CapPeer != 0 }

// Validate checks the registration.
func (h Hello) Validate() error {
	if h.SourceID == "" {
		return fmt.Errorf("wire: empty source id")
	}
	return nil
}

// Refresh propagates one object's current value to the cache.
//
// A fan-out source (one source node synchronizing several caches) runs one
// independent sync session per cache; CacheID names the cache the session
// believes it is talking to — the identity the cache reported about itself
// on earlier feedback — so that a refresh is self-describing in multi-cache
// topologies. It is advisory: caches apply refreshes regardless (the
// connection they arrived on is authoritative) but count mismatches in
// their Misrouted statistic, which flags miswired fan-out (e.g. a proxy
// routing a session to the wrong cache). Empty means the session has not
// yet heard the cache identify itself.
// In a cache→cache hierarchy (runtime.Node) a refresh may have crossed
// one or more relay tiers before reaching this hop. Origin names the node
// the value was first produced on — relays preserve it while stamping their
// own id as SourceID — Hops counts the relay tiers already traversed (the
// origin source sends 0; every re-export increments it), and Via is the
// path vector of relay ids crossed, oldest first. Together they make
// multi-tier attribution and loop-avoidance possible: a relay never
// re-exports a refresh whose path already contains itself (the message
// crossed a topology cycle) or whose origin is itself, and refuses to
// forward past a configurable hop ceiling.
// Origin carries its own version axis too: OriginEpoch/OriginVersion are the
// (epoch, version) the value had AT ITS ORIGIN, preserved unchanged across
// every relay hop (zero for a direct refresh — then Epoch/Version are the
// origin axis). Each relay tier re-issues Epoch/Version under its own
// incarnation, so only the origin axis stays comparable across a relay
// restart; the cache's staleness guard and held-version feedback both use it
// (OriginAxis).
//
// Via is immutable once set: a path slice is shared between the refreshes of
// a batch, the cache entries and provenance records built from them, and (by
// the binary decoder) consecutive refreshes of a stream. Whoever extends a
// path copies it first (copy-on-append); nothing writes to one in place.
type Refresh struct {
	SourceID      string
	ObjectID      string
	CacheID       string   // intended destination cache (advisory; see above)
	Origin        string   // originating source in a relay hierarchy; empty = SourceID
	Hops          int      // relay tiers traversed so far (0 = direct); display summary — guards use max(Hops, len(Via))
	Via           []string // relay ids traversed, oldest first (nil = direct); authoritative for loop/depth checks
	OriginEpoch   int64    // origin-axis epoch (0 = direct; use Epoch)
	OriginVersion uint64   // origin-axis version (with OriginEpoch 0: use Version)
	Value         float64
	Version       uint64
	Epoch         int64   // source incarnation (restarts reset Version counters)
	Threshold     float64 // the source's current local threshold (piggyback)
	SentUnix      int64   // nanoseconds; diagnostic only
}

// OriginID returns the id of the node the value was first produced on: the
// explicit Origin when the refresh crossed a relay, otherwise the sending
// source itself.
func (r Refresh) OriginID() string {
	if r.Origin != "" {
		return r.Origin
	}
	return r.SourceID
}

// OriginAxis returns the (epoch, version) the value had at its origin: the
// explicit origin-axis fields when the refresh crossed a relay, otherwise the
// sender's own Epoch/Version (a direct sender IS the origin). Unlike
// Epoch/Version — which every relay tier re-issues under its own incarnation
// — the origin axis is comparable for two copies of the same object from the
// same origin regardless of which (incarnation of which) relay delivered
// them.
func (r Refresh) OriginAxis() (epoch int64, version uint64) {
	if r.OriginEpoch != 0 {
		return r.OriginEpoch, r.OriginVersion
	}
	return r.Epoch, r.Version
}

// Validate checks a refresh message.
func (r Refresh) Validate() error {
	if r.SourceID == "" {
		return fmt.Errorf("wire: refresh with empty source id")
	}
	if r.ObjectID == "" {
		return fmt.Errorf("wire: refresh with empty object id")
	}
	if r.Hops < 0 {
		return fmt.Errorf("wire: refresh with negative hop count %d", r.Hops)
	}
	return nil
}

// RefreshBatch is the unit framed on the source→cache stream: one or more
// refreshes coalesced to amortize encode/flush overhead. Refreshes are
// applied in slice order; the last refresh from a given source carries the
// freshest piggybacked threshold.
type RefreshBatch struct {
	Refreshes []Refresh
	SentUnix  int64 // nanoseconds; diagnostic only
}

// Validate is the strict client-side check: the batch must be non-empty and
// every refresh inside it must itself validate. The cache-side transports
// are deliberately laxer — they validate refreshes individually, dropping
// malformed ones while keeping the rest of the batch, so one bad message
// never costs a whole flush.
func (b RefreshBatch) Validate() error {
	if len(b.Refreshes) == 0 {
		return fmt.Errorf("wire: empty refresh batch")
	}
	for i := range b.Refreshes {
		if err := b.Refreshes[i].Validate(); err != nil {
			return fmt.Errorf("wire: batch[%d]: %w", i, err)
		}
	}
	return nil
}

// HeldVersion acknowledges the cache's held copy of one object on the
// ORIGIN version axis (Refresh.OriginAxis): "for this object I hold the
// value the origin stamped (Epoch, Version)". Senders use it to skip
// refreshes the cache is already at-or-ahead of — most importantly a relay
// restored from a stale snapshot, whose re-exports carry a fresh sender
// epoch the cache's ordinary staleness guard cannot compare.
type HeldVersion struct {
	ObjectID string
	Epoch    int64
	Version  uint64
}

// Feedback is a positive-feedback message from the cache: the receiving
// source should decrease its local threshold (unless bandwidth-limited).
//
// CacheID identifies the cache that sent the feedback. A fan-out source
// routes each connection's feedback to the sync session owning that
// connection, so the per-cache thresholds converge independently; the
// explicit id lets sessions learn and report which cache is on the other
// end. Empty means the cache predates (or did not configure) an id.
//
// Held piggybacks a bounded set of held-version acknowledgements for objects
// this cache recently applied — or dropped as stale — from the receiving
// source (the cache acking what it holds). The receiving session records
// them and skips scheduling sends the cache is already at-or-ahead of on the
// origin axis; see runtime's session held-skip contract. Nil is a plain
// paper-§5 feedback.
type Feedback struct {
	CacheID  string
	Held     []HeldVersion
	SentUnix int64
}

// KnownVersion is a held-version hint attached to a targeted Poll: "for this
// object I already hold the value origin Origin stamped (Epoch, Version)".
// The answering peer may omit (or answer Exists-only) objects the poller is
// already at-or-ahead of ON THE SAME ORIGIN AXIS — epochs from different
// origins are incomparable, so a hint whose Origin differs from the
// answerer's copy never suppresses anything. Purely advisory: ignoring hints
// only costs redundant reply items, never correctness.
type KnownVersion struct {
	ObjectID string
	Origin   string // origin node of the held copy (never empty)
	Epoch    int64  // origin-axis epoch of the held copy
	Version  uint64 // origin-axis version of the held copy
}

// Poll is a cache-driven synchronization request (the Cho & Garcia-Molina
// baseline of Section 6.3): the cache asks the source for the current value
// of the named objects. An EMPTY ObjectIDs list is the discovery poll — the
// source answers with its whole store, which is how a polling cache learns
// the object universe. CacheID identifies the polling cache (sessions learn
// the peer identity from it exactly as they do from feedback).
//
// Known optionally carries held-version hints for (a subset of) the polled
// objects, so a peer-capable answerer (CapPeer) can suppress items the
// poller already holds. Only sent to peers that advertised CapPeer; always
// nil on discovery polls and legacy frames.
type Poll struct {
	CacheID   string
	ObjectIDs []string
	SentUnix  int64
	Known     []KnownVersion
}

// Validate checks a poll message. An empty object list is valid (discovery);
// empty ids inside the list are not.
func (p Poll) Validate() error {
	for i, id := range p.ObjectIDs {
		if id == "" {
			return fmt.Errorf("wire: poll object[%d] has empty id", i)
		}
	}
	for i := range p.Known {
		if p.Known[i].ObjectID == "" {
			return fmt.Errorf("wire: poll known[%d] has empty object id", i)
		}
		if p.Known[i].Origin == "" {
			return fmt.Errorf("wire: poll known[%d] has empty origin", i)
		}
	}
	return nil
}

// PollItem is one object's answer inside a PollReply: the source's current
// value, its (epoch, version), and the wall-clock time of its most recent
// update — the last-modified metadata the CGM1 estimator consumes. Exists
// is false when the source holds no such object (the value fields are then
// zero and carry no information).
//
// When the answering node is itself a cache holding a RELAYED copy (a
// runtime.Node serving a neighbor's poll laterally), the provenance fields
// mirror Refresh's: Origin names the node the value was first produced on,
// Hops/Via the relay path already traversed to REACH the answerer (serving a
// poll adds no hop; the asker's own re-export appends itself), and
// OriginEpoch/OriginVersion the origin version axis. All zero when the
// answerer is the origin — exactly like a direct Refresh.
type PollItem struct {
	ObjectID         string
	Exists           bool
	Value            float64
	Version          uint64
	Epoch            int64
	LastModifiedUnix int64    // nanoseconds; 0 = never updated
	Origin           string   // originating node for relayed copies; empty = answerer
	Hops             int      // relay tiers traversed to reach the answerer
	Via              []string // relay path to the answerer, oldest first; immutable, as Refresh.Via
	OriginEpoch      int64    // origin-axis epoch (0 = direct; use Epoch)
	OriginVersion    uint64   // origin-axis version (with OriginEpoch 0: use Version)
}

// OriginID returns the id of the node the item's value was first produced
// on, given the id of the source that answered the poll.
func (it PollItem) OriginID(sourceID string) string {
	if it.Origin != "" {
		return it.Origin
	}
	return sourceID
}

// OriginAxis returns the (epoch, version) the value had at its origin,
// mirroring Refresh.OriginAxis.
func (it PollItem) OriginAxis() (epoch int64, version uint64) {
	if it.OriginEpoch != 0 {
		return it.OriginEpoch, it.OriginVersion
	}
	return it.Epoch, it.Version
}

// PollReply answers one Poll: the requested objects' current state, batched
// into one envelope exactly like a RefreshBatch (one reply frames the whole
// poll's worth of items; items are applied individually, in order). All
// answers a discovery poll — the items are the source's full store.
//
// Pushed is the object ids the answering source says it pushes to this
// cache, meaningful only with CapCooperative. No runtime fills or reads it
// any more: it is empty on every frame this build writes and stays in the
// wire format until the next codec version. Ignoring it is always safe.
type PollReply struct {
	SourceID string
	All      bool
	Items    []PollItem
	SentUnix int64
	Pushed   []string
}

// Validate checks a poll reply.
func (p PollReply) Validate() error {
	if p.SourceID == "" {
		return fmt.Errorf("wire: poll reply with empty source id")
	}
	for i := range p.Items {
		if p.Items[i].ObjectID == "" {
			return fmt.Errorf("wire: poll reply item[%d] has empty object id", i)
		}
		if p.Items[i].Hops < 0 {
			return fmt.Errorf("wire: poll reply item[%d] has negative hop count %d", i, p.Items[i].Hops)
		}
	}
	return nil
}

// CacheBound is the framing envelope for the source→cache direction: exactly
// one of Batch (push policy) or Reply (poll policies) is set. The TCP
// transport streams CacheBound envelopes after the Hello; the in-process
// transport delivers the payloads directly.
type CacheBound struct {
	Batch *RefreshBatch
	Reply *PollReply
}

// Validate checks that exactly one payload is present (payload contents are
// validated by the transports item-by-item, per the lax cache-side rule).
func (e CacheBound) Validate() error {
	if (e.Batch == nil) == (e.Reply == nil) {
		return fmt.Errorf("wire: cache-bound envelope needs exactly one of Batch/Reply")
	}
	return nil
}

// SourceBound is the framing envelope for the cache→source direction:
// exactly one of Feedback (push policy) or Poll (poll policies) is set.
type SourceBound struct {
	Feedback *Feedback
	Poll     *Poll
}

// Validate checks that exactly one payload is present.
func (e SourceBound) Validate() error {
	if (e.Feedback == nil) == (e.Poll == nil) {
		return fmt.Errorf("wire: source-bound envelope needs exactly one of Feedback/Poll")
	}
	return nil
}
