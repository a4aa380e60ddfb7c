package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime/debug"
	"testing"

	"bestsync/internal/wire"
)

// sampleRefresh exercises every Refresh field, including relay provenance.
func sampleRefresh() wire.Refresh {
	return wire.Refresh{
		SourceID:      "relay-1",
		ObjectID:      "src-9/obj-42",
		CacheID:       "edge-a",
		Origin:        "src-9",
		Hops:          2,
		Via:           []string{"relay-0", "relay-1"},
		OriginEpoch:   1700000000123,
		OriginVersion: 77,
		Value:         -273.15,
		Version:       12345,
		Epoch:         1700000001456,
		Threshold:     0.125,
		SentUnix:      1700000002789,
	}
}

func sampleBatch() wire.RefreshBatch {
	plain := wire.Refresh{SourceID: "s1", ObjectID: "s1/x", Value: 1.5, Version: 9, Epoch: 3}
	return wire.RefreshBatch{Refreshes: []wire.Refresh{sampleRefresh(), plain}, SentUnix: 42}
}

func sampleReply() wire.PollReply {
	return wire.PollReply{
		SourceID: "s1",
		All:      true,
		Items: []wire.PollItem{
			{ObjectID: "s1/a", Exists: true, Value: 2.5, Version: 8, Epoch: 3, LastModifiedUnix: 99},
			{ObjectID: "s1/b"},
		},
		SentUnix: 7,
	}
}

func sampleFeedback() wire.Feedback {
	return wire.Feedback{
		CacheID: "edge-a",
		Held: []wire.HeldVersion{
			{ObjectID: "s1/a", Epoch: 5, Version: 6},
			{ObjectID: "s1/b", Epoch: -1, Version: 0},
		},
		SentUnix: 11,
	}
}

func samplePoll() wire.Poll {
	return wire.Poll{CacheID: "edge-a", ObjectIDs: []string{"s1/a", "s1/b", "s1/c"}, SentUnix: 13}
}

// sampleHelloCoop pins the optional trailing Capabilities field (hybrid
// policy's cooperation advertisement).
func sampleHelloCoop() wire.Hello {
	return wire.Hello{SourceID: "src-7", Capabilities: wire.CapCooperative}
}

// sampleHybridReply pins the optional trailing Pushed segment a hybrid
// source piggybacks on its poll replies.
func sampleHybridReply() wire.PollReply {
	r := sampleReply()
	r.Pushed = []string{"s1/a", "s1/hot"}
	return r
}

// samplePeerReply pins the trailing per-item provenance segment a
// peer-capable node emits when answering a poll from relayed state. The
// push set is empty, so this also pins the explicit zero-count Pushed
// segment that disambiguates the two trailers.
func samplePeerReply() wire.PollReply {
	r := sampleReply()
	r.Items[0].Origin = "src-9"
	r.Items[0].Hops = 2
	r.Items[0].Via = []string{"relay-0", "relay-1"}
	r.Items[0].OriginEpoch = 1700000000123
	r.Items[0].OriginVersion = 77
	return r
}

// samplePeerPoll pins the trailing known-version segment a polling cache
// attaches for peer-capable answerers.
func samplePeerPoll() wire.Poll {
	p := samplePoll()
	p.Known = []wire.KnownVersion{
		{ObjectID: "s1/a", Origin: "src-9", Epoch: 1700000000123, Version: 76},
		{ObjectID: "s1/b", Origin: "s1", Epoch: -4, Version: 0},
	}
	return p
}

// TestHelloCapabilityRoundTrip: the capability bit survives the codec, a
// capability-less hello encodes byte-identically to the legacy format, and a
// legacy (pre-capability) frame decodes with zero capabilities.
func TestHelloCapabilityRoundTrip(t *testing.T) {
	var enc Encoder
	frame := enc.AppendHello(nil, sampleHelloCoop())
	got, err := NewDecoder(bytes.NewReader(frame)).ReadHello()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Cooperates() || got.SourceID != "src-7" {
		t.Errorf("capability lost in round trip: %+v", got)
	}

	plain := enc.AppendHello(nil, wire.Hello{SourceID: "src-7"})
	legacy := append([]byte{KindHello}, byte(1+len("src-7")))
	legacy = append(legacy, byte(len("src-7")))
	legacy = append(legacy, "src-7"...)
	if !bytes.Equal(plain, legacy) {
		t.Errorf("capability-less hello drifted from the legacy encoding:\n got %x\nwant %x", plain, legacy)
	}
	gotLegacy, err := NewDecoder(bytes.NewReader(legacy)).ReadHello()
	if err != nil {
		t.Fatal(err)
	}
	if gotLegacy.Capabilities != 0 || gotLegacy.Cooperates() {
		t.Errorf("legacy hello decoded with capabilities: %+v", gotLegacy)
	}
}

// TestReplyPushedRoundTrip: the pushed-set segment survives the codec and a
// pushed-less reply stays byte-identical to the legacy encoding.
func TestReplyPushedRoundTrip(t *testing.T) {
	var enc Encoder
	reply := sampleHybridReply()
	got, err := NewDecoder(bytes.NewReader(enc.AppendReply(nil, reply))).ReadCacheBound()
	if err != nil {
		t.Fatal(err)
	}
	if got.Reply == nil || !reflect.DeepEqual(*got.Reply, reply) {
		t.Errorf("hybrid reply round-trip:\n got %+v\nwant %+v", got.Reply, reply)
	}

	legacyReply := sampleReply() // no Pushed
	legacy := enc.AppendReply(nil, legacyReply)
	withEmpty := legacyReply
	withEmpty.Pushed = []string{}
	if !bytes.Equal(enc.AppendReply(nil, withEmpty), legacy) {
		t.Error("empty pushed set changed the reply encoding")
	}
	gotLegacy, err := NewDecoder(bytes.NewReader(legacy)).ReadCacheBound()
	if err != nil {
		t.Fatal(err)
	}
	if gotLegacy.Reply.Pushed != nil {
		t.Errorf("legacy reply decoded with a pushed set: %+v", gotLegacy.Reply)
	}
}

// TestReplyProvenanceRoundTrip: per-item provenance survives the codec (with
// and without a non-empty pushed set), and a provenance-free reply stays
// byte-identical to the legacy encoding.
func TestReplyProvenanceRoundTrip(t *testing.T) {
	var enc Encoder
	for _, reply := range []wire.PollReply{
		samplePeerReply(),
		func() wire.PollReply { // provenance AND a pushed set together
			r := samplePeerReply()
			r.Pushed = []string{"s1/hot"}
			return r
		}(),
	} {
		got, err := NewDecoder(bytes.NewReader(enc.AppendReply(nil, reply))).ReadCacheBound()
		if err != nil {
			t.Fatal(err)
		}
		if got.Reply == nil || !reflect.DeepEqual(*got.Reply, reply) {
			t.Errorf("peer reply round-trip:\n got %+v\nwant %+v", got.Reply, reply)
		}
	}

	plain := sampleReply()
	legacy := enc.AppendReply(nil, plain)
	gotLegacy, err := NewDecoder(bytes.NewReader(legacy)).ReadCacheBound()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*gotLegacy.Reply, plain) {
		t.Errorf("provenance-free reply drifted: %+v", gotLegacy.Reply)
	}

	// A hostile provenance index (out of range) is rejected: take a valid
	// one-item reply, strip the frame header, append a zero-count pushed
	// segment plus a one-entry provenance segment claiming item index 5,
	// and reframe.
	bad := enc.AppendReply(nil, wire.PollReply{SourceID: "s1", Items: []wire.PollItem{{ObjectID: "x"}}})
	payload := append([]byte{}, bad[2:]...) // 2 = kind + 1-byte length prefix
	payload = append(payload, 0 /* pushed count */, 1 /* prov count */, 5, 0, 0, 0, 0, 0)
	reframed := append([]byte{KindReply, byte(len(payload))}, payload...)
	if _, err := NewDecoder(bytes.NewReader(reframed)).ReadCacheBound(); !errors.Is(err, ErrBadFrame) {
		t.Errorf("out-of-range provenance index accepted: %v", err)
	}
}

// TestPollKnownRoundTrip: the known-version segment survives the codec and a
// hint-less poll stays byte-identical to the legacy encoding.
func TestPollKnownRoundTrip(t *testing.T) {
	var enc Encoder
	poll := samplePeerPoll()
	got, err := NewDecoder(bytes.NewReader(enc.AppendPoll(nil, poll))).ReadSourceBound()
	if err != nil {
		t.Fatal(err)
	}
	if got.Poll == nil || !reflect.DeepEqual(*got.Poll, poll) {
		t.Errorf("peer poll round-trip:\n got %+v\nwant %+v", got.Poll, poll)
	}

	plain := samplePoll()
	legacy := enc.AppendPoll(nil, plain)
	withEmpty := plain
	withEmpty.Known = []wire.KnownVersion{}
	if !bytes.Equal(enc.AppendPoll(nil, withEmpty), legacy) {
		t.Error("empty known set changed the poll encoding")
	}
	gotLegacy, err := NewDecoder(bytes.NewReader(legacy)).ReadSourceBound()
	if err != nil {
		t.Fatal(err)
	}
	if gotLegacy.Poll.Known != nil {
		t.Errorf("legacy poll decoded with known hints: %+v", gotLegacy.Poll)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	var enc Encoder
	frame := enc.AppendHello(nil, wire.Hello{SourceID: "src-7"})
	d := NewDecoder(bytes.NewReader(frame))
	got, err := d.ReadHello()
	if err != nil {
		t.Fatal(err)
	}
	if got.SourceID != "src-7" {
		t.Errorf("got %+v", got)
	}
	if _, err := d.ReadHello(); err != io.EOF {
		t.Errorf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestCacheBoundRoundTrip(t *testing.T) {
	var enc Encoder
	batch := sampleBatch()
	reply := sampleReply()
	var buf []byte
	var err error
	if buf, err = enc.AppendCacheBound(buf, wire.CacheBound{Batch: &batch}); err != nil {
		t.Fatal(err)
	}
	if buf, err = enc.AppendCacheBound(buf, wire.CacheBound{Reply: &reply}); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(bytes.NewReader(buf))
	env1, err := d.ReadCacheBound()
	if err != nil {
		t.Fatal(err)
	}
	if env1.Batch == nil || !reflect.DeepEqual(*env1.Batch, batch) {
		t.Errorf("batch round-trip:\n got %+v\nwant %+v", env1.Batch, batch)
	}
	env2, err := d.ReadCacheBound()
	if err != nil {
		t.Fatal(err)
	}
	if env2.Reply == nil || !reflect.DeepEqual(*env2.Reply, reply) {
		t.Errorf("reply round-trip:\n got %+v\nwant %+v", env2.Reply, reply)
	}
}

func TestSourceBoundRoundTrip(t *testing.T) {
	var enc Encoder
	fb := sampleFeedback()
	poll := samplePoll()
	var buf []byte
	var err error
	if buf, err = enc.AppendSourceBound(buf, wire.SourceBound{Feedback: &fb}); err != nil {
		t.Fatal(err)
	}
	if buf, err = enc.AppendSourceBound(buf, wire.SourceBound{Poll: &poll}); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(bytes.NewReader(buf))
	env1, err := d.ReadSourceBound()
	if err != nil {
		t.Fatal(err)
	}
	if env1.Feedback == nil || !reflect.DeepEqual(*env1.Feedback, fb) {
		t.Errorf("feedback round-trip:\n got %+v\nwant %+v", env1.Feedback, fb)
	}
	env2, err := d.ReadSourceBound()
	if err != nil {
		t.Fatal(err)
	}
	if env2.Poll == nil || !reflect.DeepEqual(*env2.Poll, poll) {
		t.Errorf("poll round-trip:\n got %+v\nwant %+v", env2.Poll, poll)
	}
}

func TestInvalidEnvelopeRejected(t *testing.T) {
	var enc Encoder
	if _, err := enc.AppendCacheBound(nil, wire.CacheBound{}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("empty cache-bound envelope: err = %v", err)
	}
	b := sampleBatch()
	r := sampleReply()
	if _, err := enc.AppendCacheBound(nil, wire.CacheBound{Batch: &b, Reply: &r}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("double cache-bound envelope: err = %v", err)
	}
	if _, err := enc.AppendSourceBound(nil, wire.SourceBound{}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("empty source-bound envelope: err = %v", err)
	}
}

// TestVarintEdgeCases pins the length-prefix/field encoding at the extremes:
// 0, 1, the full uint64 range, and the rejection rules past it.
func TestVarintEdgeCases(t *testing.T) {
	// Round-trip extremes through a real message field (Refresh.Version).
	for _, v := range []uint64{0, 1, 127, 128, 1<<32 - 1, math.MaxUint64} {
		var enc Encoder
		b := wire.RefreshBatch{Refreshes: []wire.Refresh{{SourceID: "s", ObjectID: "o", Version: v}}}
		frame := enc.AppendBatch(nil, b)
		got, err := NewDecoder(bytes.NewReader(frame)).ReadCacheBound()
		if err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
		if got.Batch.Refreshes[0].Version != v {
			t.Errorf("version %d round-tripped to %d", v, got.Batch.Refreshes[0].Version)
		}
	}

	// A length prefix of exactly max uint64 must be rejected as oversized,
	// not wrapped or allocated.
	frame := append([]byte{KindBatch}, binary.AppendUvarint(nil, math.MaxUint64)...)
	if _, err := NewDecoder(bytes.NewReader(frame)).ReadCacheBound(); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("max-uint64 length: err = %v, want ErrFrameTooLarge", err)
	}

	// An 11-byte (over-long) length prefix is malformed.
	over := append([]byte{KindBatch}, bytes.Repeat([]byte{0x80}, 10)...)
	over = append(over, 0x01)
	if _, err := NewDecoder(bytes.NewReader(over)).ReadCacheBound(); !errors.Is(err, ErrBadFrame) {
		t.Errorf("over-long length prefix: err = %v, want ErrBadFrame", err)
	}

	// A 10-byte prefix whose top byte overflows uint64 is malformed.
	overflow := append([]byte{KindBatch}, bytes.Repeat([]byte{0xff}, 9)...)
	overflow = append(overflow, 0x02)
	if _, err := NewDecoder(bytes.NewReader(overflow)).ReadCacheBound(); !errors.Is(err, ErrBadFrame) {
		t.Errorf("overflowing length prefix: err = %v, want ErrBadFrame", err)
	}

	// cap+1 is rejected, cap itself is not (it fails later, on the missing
	// payload — proving the boundary is exact).
	d := NewDecoder(bytes.NewReader(append([]byte{KindBatch}, binary.AppendUvarint(nil, 1025)...)))
	d.SetMaxFrame(1024)
	if _, err := d.ReadCacheBound(); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("cap+1: err = %v, want ErrFrameTooLarge", err)
	}
	d = NewDecoder(bytes.NewReader(append([]byte{KindBatch}, binary.AppendUvarint(nil, 1024)...)))
	d.SetMaxFrame(1024)
	if _, err := d.ReadCacheBound(); !errors.Is(err, ErrBadFrame) {
		t.Errorf("at-cap truncated frame: err = %v, want ErrBadFrame", err)
	}
}

// TestAllocationBombRejected is the decoder's allocation-bomb regression
// test: a 4-byte frame claiming a 2 GiB body must error out without
// allocating anything sized by the claim.
func TestAllocationBombRejected(t *testing.T) {
	bomb := append([]byte{KindBatch}, binary.AppendUvarint(nil, 2<<30)...) // 2 GiB claim, 6 bytes total
	r := bytes.NewReader(bomb)
	d := NewDecoder(r)
	if _, err := d.ReadCacheBound(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	// Steady-state rejection must be allocation-free (nothing proportional
	// to the claimed size — or indeed anything at all — is allocated).
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(bomb)
		d.r.Reset(r)
		if _, err := d.ReadCacheBound(); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("err = %v, want ErrFrameTooLarge", err)
		}
	})
	if allocs > 0 {
		t.Errorf("rejecting an oversized frame allocated %.1f times per call, want 0", allocs)
	}

	// Same shape one layer down: a small, cap-passing frame claiming 2^31
	// refreshes must be rejected by the element-count check, again without
	// the 100+ GiB allocation the count implies.
	inner := binary.AppendUvarint(nil, 2<<30) // refresh count
	frame := append([]byte{KindBatch}, binary.AppendUvarint(nil, uint64(len(inner)))...)
	frame = append(frame, inner...)
	if _, err := NewDecoder(bytes.NewReader(frame)).ReadCacheBound(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("hostile element count: err = %v, want ErrBadFrame", err)
	}

	// And for strings: a claimed 1 MiB object id inside a 32-byte payload.
	inner = binary.AppendUvarint(nil, 1)                    // one refresh
	inner = binary.AppendUvarint(inner, 1<<20)              // SourceID length claim
	inner = append(inner, bytes.Repeat([]byte{'x'}, 28)...) // payload falls far short
	frame = append([]byte{KindBatch}, binary.AppendUvarint(nil, uint64(len(inner)))...)
	frame = append(frame, inner...)
	if _, err := NewDecoder(bytes.NewReader(frame)).ReadCacheBound(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("hostile string length: err = %v, want ErrBadFrame", err)
	}
}

// TestTruncatedFramesError walks every prefix of a valid multi-message
// stream: each must produce a clean error (EOF at a frame boundary,
// ErrBadFrame inside one), never a panic or a bogus success.
func TestTruncatedFramesError(t *testing.T) {
	var enc Encoder
	batch := sampleBatch()
	reply := sampleReply()
	full := enc.AppendBatch(nil, batch)
	full = enc.AppendReply(full, reply)
	for n := 0; n < len(full); n++ {
		d := NewDecoder(bytes.NewReader(full[:n]))
		env1, err := d.ReadCacheBound()
		if err == nil {
			// The first frame fit: the second must fail.
			if !reflect.DeepEqual(*env1.Batch, batch) {
				t.Fatalf("prefix %d: first frame decoded wrong", n)
			}
			if _, err2 := d.ReadCacheBound(); err2 == nil {
				t.Fatalf("prefix %d: truncated second frame decoded", n)
			}
		}
	}
}

// TestTrailingGarbageRejected: extra bytes after a message's last field make
// the frame malformed even when every field parsed.
func TestTrailingGarbageRejected(t *testing.T) {
	var enc Encoder
	frame := enc.AppendPoll(nil, samplePoll())
	// Splice one junk byte inside the payload (and fix the length prefix by
	// rebuilding the frame by hand).
	kind := frame[0]
	length, hdr := binary.Uvarint(frame[1:])
	payload := append([]byte(nil), frame[1+hdr:1+hdr+int(length)]...)
	payload = append(payload, 0xEE)
	tampered := append([]byte{kind}, binary.AppendUvarint(nil, uint64(len(payload)))...)
	tampered = append(tampered, payload...)
	if _, err := NewDecoder(bytes.NewReader(tampered)).ReadSourceBound(); !errors.Is(err, ErrBadFrame) {
		t.Errorf("trailing garbage: err = %v, want ErrBadFrame", err)
	}
}

// TestWrongDirectionRejected: a cache-bound frame on the source-bound reader
// (and vice versa) is a protocol violation, not a silent skip.
func TestWrongDirectionRejected(t *testing.T) {
	var enc Encoder
	batch := enc.AppendBatch(nil, sampleBatch())
	if _, err := NewDecoder(bytes.NewReader(batch)).ReadSourceBound(); !errors.Is(err, ErrBadFrame) {
		t.Errorf("batch on source-bound reader: err = %v", err)
	}
	poll := enc.AppendPoll(nil, samplePoll())
	if _, err := NewDecoder(bytes.NewReader(poll)).ReadCacheBound(); !errors.Is(err, ErrBadFrame) {
		t.Errorf("poll on cache-bound reader: err = %v", err)
	}
}

// TestEncodeSteadyStateZeroAlloc: after warm-up, encoding into a reused
// buffer through a reused Encoder performs no allocations — the codec's
// core contract.
func TestEncodeSteadyStateZeroAlloc(t *testing.T) {
	var enc Encoder
	batch := sampleBatch()
	fb := sampleFeedback()
	buf := enc.AppendBatch(nil, batch) // warm up scratch + dst
	allocs := testing.AllocsPerRun(100, func() {
		buf = enc.AppendBatch(buf[:0], batch)
		buf = enc.AppendFeedback(buf[:0], fb)
	})
	if allocs > 0 {
		t.Errorf("steady-state encode allocated %.1f times per run, want 0", allocs)
	}
}

// TestDecodeReleaseSteadyStateZeroAlloc: a reader that releases every batch
// it is handed decodes frame after frame without allocating — plain reads,
// and retained reads whose frame goes back to its pool too.
func TestDecodeReleaseSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC empties the pools
	rs := make([]wire.Refresh, 64)
	for i := range rs {
		rs[i] = sampleRefresh()
		rs[i].ObjectID = fmt.Sprintf("src-9/obj-%02d", i)
	}
	var enc Encoder
	frame := enc.AppendBatch(nil, wire.RefreshBatch{Refreshes: rs, SentUnix: 42})
	const runs = 100
	for _, retained := range []bool{false, true} {
		dec := NewDecoder(bytes.NewReader(bytes.Repeat(frame, runs+2)))
		read := func() {
			var env wire.CacheBound
			var f *Frame
			var err error
			if retained {
				env, f, err = dec.ReadCacheBoundRetained()
				f.Release()
			} else {
				env, err = dec.ReadCacheBound()
			}
			if err != nil || len(env.Batch.Refreshes) != len(rs) {
				t.Fatalf("read: %v", err)
			}
			ReleaseBatch(env.Batch)
		}
		read() // warm the intern table and the pools
		if allocs := testing.AllocsPerRun(runs, read); allocs > 0 {
			t.Errorf("retained=%v: decode + release allocated %.1f times per frame, want 0", retained, allocs)
		}
	}
}

// staleRefresh sets every field of a Refresh to a non-zero value no frame in
// these tests carries, so a decode into it that skipped a field shows. A
// field of a kind it does not know fails the test: give it a stale value.
func staleRefresh(t *testing.T) wire.Refresh {
	t.Helper()
	var r wire.Refresh
	v := reflect.ValueOf(&r).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			f.SetString("stale")
		case reflect.Int, reflect.Int64:
			f.SetInt(99)
		case reflect.Uint64:
			f.SetUint(99)
		case reflect.Float64:
			f.SetFloat(9.5)
		case reflect.Slice:
			f.Set(reflect.ValueOf([]string{"stale"}))
		default:
			t.Fatalf("staleRefresh: no stale value for %s field %s", f.Kind(), v.Type().Field(i).Name)
		}
	}
	return r
}

// TestDecodeIntoReusedBatch: a batch handed back by ReleaseBatch comes out of
// the next decode exactly as the batch that was encoded — nothing of its old
// refreshes shows through, including fields the new frame leaves zero.
func TestDecodeIntoReusedBatch(t *testing.T) {
	want := sampleBatch()
	frame := NewBatchFrame(want.Refreshes, want.SentUnix)
	defer frame.Release()
	// sync.Pool may hand out another batch (a goroutine moved between Ps, or
	// the race detector dropped the put): retry until the stale one returns.
	for try := 0; try < 100; try++ {
		stale := &wire.RefreshBatch{SentUnix: 99}
		for i := 0; i < 4; i++ {
			stale.Refreshes = append(stale.Refreshes, staleRefresh(t))
		}
		ReleaseBatch(stale)
		got, err := NewDecoder(bytes.NewReader(frame.Bytes())).ReadCacheBound()
		if err != nil {
			t.Fatal(err)
		}
		if got.Batch != stale {
			continue
		}
		if !reflect.DeepEqual(*got.Batch, want) {
			t.Errorf("decode into a released batch:\n got %+v\nwant %+v", *got.Batch, want)
		}
		return
	}
	t.Skip("the pool never handed the released batch back")
}

// TestReleasedBatchCapBounded: a frame that grows the refresh slice past the
// decoder's initial-capacity clamp is not pooled on release, so no later
// batch-64 decode holds on to its backing array.
func TestReleasedBatchCapBounded(t *testing.T) {
	big := make([]wire.Refresh, 2*maxPooledBatch)
	for i := range big {
		big[i] = wire.Refresh{SourceID: "s", ObjectID: fmt.Sprintf("o%d", i)}
	}
	var enc Encoder
	env, err := NewDecoder(bytes.NewReader(enc.AppendBatch(nil, wire.RefreshBatch{Refreshes: big}))).ReadCacheBound()
	if err != nil {
		t.Fatal(err)
	}
	hostile := env.Batch
	if cap(hostile.Refreshes) <= maxPooledBatch {
		t.Fatalf("a %d-refresh decode has cap %d, want it grown past %d", len(big), cap(hostile.Refreshes), maxPooledBatch)
	}
	backing := &hostile.Refreshes[0]
	ReleaseBatch(hostile)
	small := enc.AppendBatch(nil, wire.RefreshBatch{Refreshes: big[:64]})
	for i := 0; i < 10; i++ {
		env, err := NewDecoder(bytes.NewReader(small)).ReadCacheBound()
		if err != nil {
			t.Fatal(err)
		}
		if env.Batch == hostile || &env.Batch.Refreshes[0] == backing || cap(env.Batch.Refreshes) > maxPooledBatch {
			t.Fatalf("a batch-64 decode got the hostile frame's batch back (cap %d)", cap(env.Batch.Refreshes))
		}
		ReleaseBatch(env.Batch)
	}
}

// TestControlDecodeReleaseSteadyStateZeroAlloc: a reader that releases every
// control frame it is handed decodes frame after frame without allocating —
// feedback with and without held acks, a targeted poll with known-version
// hints, and a targeted reply with provenance.
func TestControlDecodeReleaseSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector instrumentation")
	}
	var enc Encoder
	plain := sampleFeedback()
	plain.Held = nil
	reply := samplePeerReply()
	reply.All = false
	const runs = 100
	for _, tc := range []struct {
		name  string
		frame []byte
		read  func(*Decoder) error
	}{
		{"feedback", enc.AppendFeedback(nil, plain), readSourceRelease},
		{"feedback+held", enc.AppendFeedback(nil, sampleFeedback()), readSourceRelease},
		{"poll", enc.AppendPoll(nil, samplePeerPoll()), readSourceRelease},
		{"reply", enc.AppendReply(nil, reply), func(d *Decoder) error {
			env, err := d.ReadCacheBound()
			if err != nil {
				return err
			}
			r := *env.Reply
			ReleaseReply(&r)
			return nil
		}},
	} {
		dec := NewDecoder(bytes.NewReader(bytes.Repeat(tc.frame, runs+2)))
		read := func() {
			if err := tc.read(dec); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		read() // warm the intern table and the pools
		if allocs := testing.AllocsPerRun(runs, read); allocs > 0 {
			t.Errorf("%s: decode + release allocated %.1f times per frame, want 0", tc.name, allocs)
		}
	}
}

// readSourceRelease reads one source-bound frame the way the TCP client
// does — the value copied out of the decoder's container — and releases it.
func readSourceRelease(d *Decoder) error {
	env, err := d.ReadSourceBound()
	if err != nil {
		return err
	}
	if env.Feedback != nil {
		fb := *env.Feedback
		ReleaseFeedback(&fb)
	} else {
		p := *env.Poll
		ReleasePoll(&p)
	}
	return nil
}

// TestReleasedControlCapBounded: a listing-sized reply or a feedback carrying
// more acks than any routine one is not pooled on release, so no later
// routine decode holds on to its backing array.
func TestReleasedControlCapBounded(t *testing.T) {
	var enc Encoder
	listing := wire.PollReply{SourceID: "s", All: true}
	fb := wire.Feedback{CacheID: "c"}
	for i := 0; i < 4*maxPooledControl; i++ {
		id := fmt.Sprintf("o%d", i)
		listing.Items = append(listing.Items, wire.PollItem{ObjectID: id, Exists: true})
		fb.Held = append(fb.Held, wire.HeldVersion{ObjectID: id, Epoch: 1, Version: 2})
	}
	env, err := NewDecoder(bytes.NewReader(enc.AppendReply(nil, listing))).ReadCacheBound()
	if err != nil {
		t.Fatal(err)
	}
	big := *env.Reply
	items := &big.Items[0]
	ReleaseReply(&big)
	senv, err := NewDecoder(bytes.NewReader(enc.AppendFeedback(nil, fb))).ReadSourceBound()
	if err != nil {
		t.Fatal(err)
	}
	bigFb := *senv.Feedback
	held := &bigFb.Held[0]
	ReleaseFeedback(&bigFb)

	listing.All, listing.Items = false, listing.Items[:8]
	fb.Held = fb.Held[:8]
	small := enc.AppendReply(nil, listing)
	smallFb := enc.AppendFeedback(nil, fb)
	for i := 0; i < 2*maxFreeControl; i++ {
		env, err := NewDecoder(bytes.NewReader(small)).ReadCacheBound()
		if err != nil {
			t.Fatal(err)
		}
		r := *env.Reply
		if &r.Items[0] == items || cap(r.Items) > maxPooledControl {
			t.Fatalf("a routine reply decode got the listing's items back (cap %d)", cap(r.Items))
		}
		senv, err := NewDecoder(bytes.NewReader(smallFb)).ReadSourceBound()
		if err != nil {
			t.Fatal(err)
		}
		f := *senv.Feedback
		if &f.Held[0] == held || cap(f.Held) > maxPooledControl {
			t.Fatalf("a routine feedback decode got the large feedback's acks back (cap %d)", cap(f.Held))
		}
		// Held back until the loop ends: every decode takes another slice.
		defer ReleaseReply(&r)
		defer ReleaseFeedback(&f)
	}
}

// TestDecoderBufferBounded: a 1 MiB listing is decoded through a buffer of
// its own — neither the decoder that read it nor the encoder that wrote it
// keeps more than maxRetainedBuffer — and encoded through one payload buffer,
// not a chain of growing ones, while routine frames go on reusing theirs.
func TestDecoderBufferBounded(t *testing.T) {
	var enc Encoder
	listing := wire.PollReply{SourceID: "s", All: true}
	for i := 0; i < 40000; i++ {
		listing.Items = append(listing.Items, wire.PollItem{
			ObjectID: fmt.Sprintf("object-%08d", i), Exists: true, Version: 1 << 20,
		})
	}
	big := enc.AppendReply(nil, listing)
	if len(big) < 1<<20 {
		t.Fatalf("the listing is %d bytes, want at least 1 MiB", len(big))
	}
	if cap(enc.scratch) > maxRetainedBuffer {
		t.Errorf("encoder kept a %d-byte scratch after the listing, want at most %d", cap(enc.scratch), maxRetainedBuffer)
	}
	if !raceEnabled {
		dst := big
		if allocs := testing.AllocsPerRun(3, func() { dst = enc.AppendReply(dst[:0], listing) }); allocs > 1 {
			t.Errorf("encoding the listing allocated %.0f times, want one payload buffer", allocs)
		}
	}
	small := enc.AppendReply(nil, sampleReply())
	dec := NewDecoder(bytes.NewReader(append(append(small, big...), small...)))
	for i := 0; i < 3; i++ {
		env, err := dec.ReadCacheBound()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		ReleaseReply(env.Reply)
		if cap(dec.buf) > maxRetainedBuffer {
			t.Fatalf("after frame %d the decoder keeps a %d-byte buffer, want at most %d", i, cap(dec.buf), maxRetainedBuffer)
		}
	}
	if cap(dec.buf) == 0 {
		t.Error("the decoder kept no buffer for its routine frames")
	}
}

// TestFrameRefcount: a pre-encoded frame survives until its last holder
// releases it, and the pooled buffer is reused afterwards.
func TestFrameRefcount(t *testing.T) {
	rs := sampleBatch().Refreshes
	f := NewBatchFrame(rs, 42)
	f.Retain()
	want := append([]byte(nil), f.Bytes()...)
	f.Release()
	if !bytes.Equal(f.Bytes(), want) {
		t.Fatal("frame bytes changed while a reference was held")
	}
	got, err := NewDecoder(bytes.NewReader(f.Bytes())).ReadCacheBound()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Batch.Refreshes, rs) {
		t.Errorf("frame decode mismatch:\n got %+v\nwant %+v", got.Batch.Refreshes, rs)
	}
	f.Release()
	if raceEnabled {
		return // AllocsPerRun counts race-detector instrumentation
	}
	// Steady-state: building and releasing frames is allocation-free.
	allocs := testing.AllocsPerRun(100, func() {
		f := NewBatchFrame(rs, 42)
		f.Release()
	})
	if allocs > 0 {
		t.Errorf("pooled frame encode allocated %.1f times per run, want 0", allocs)
	}
}

// TestNonMinimalVarintAccepted: decoders accept padded (non-minimal) varint
// encodings — decode(encode(decode(x))) is identity even when encode(x)
// re-canonicalizes.
func TestNonMinimalVarintAccepted(t *testing.T) {
	var enc Encoder
	frame := enc.AppendPoll(nil, wire.Poll{CacheID: "c", SentUnix: 1})
	// Re-encode the frame's length prefix non-minimally: 0x80|v, 0x00.
	length, hdr := binary.Uvarint(frame[1:])
	if length >= 0x80 {
		t.Fatalf("test assumes a short frame, got length %d", length)
	}
	padded := append([]byte{frame[0]}, byte(0x80|length), 0x00)
	padded = append(padded, frame[1+hdr:]...)
	got, err := NewDecoder(bytes.NewReader(padded)).ReadSourceBound()
	if err != nil {
		t.Fatalf("padded length prefix rejected: %v", err)
	}
	if got.Poll == nil || got.Poll.CacheID != "c" {
		t.Errorf("got %+v", got)
	}
}
