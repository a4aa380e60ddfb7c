package transport

import (
	"sync/atomic"

	"bestsync/internal/wire/codec"
)

// Codec names a TCP wire encoding. There is one: the binary codec
// (internal/wire/codec).
//
// Deprecated: use Dial. Codec, CodecBinary and DialCodec remain only because
// benchmark/topology.go dials through them; the benchmark module's next
// change switches that call to Dial and deletes all three.
type Codec int

// CodecBinary is the binary codec, the only encoding the TCP transport
// speaks.
//
// Deprecated: use Dial.
const CodecBinary Codec = 0

// DialCodec is Dial; the codec argument is ignored.
//
// Deprecated: use Dial.
func DialCodec(addr, sourceID string, _ Codec) (SourceConn, error) { return Dial(addr, sourceID) }

// dialCaps is the process-wide capability mask stamped onto the Hello of
// every outbound dial (TCP and Local alike). Zero — no capabilities — unless
// a daemon opts in, so legacy peers see byte-identical handshakes.
var dialCaps atomic.Uint64

// SetDialCapabilities sets the capability bits Dial advertises in its Hello.
// A peer-serving daemon calls it once at boot with wire.CapPeer so pollers
// attach known-version hints; everything else leaves the default zero mask.
func SetDialCapabilities(caps uint64) { dialCaps.Store(caps) }

// DialCapabilities reports the current process-wide capability mask.
func DialCapabilities() uint64 { return dialCaps.Load() }

// FrameSender is the capability a connection exposes when it can transmit
// pre-encoded binary frames verbatim: the encode-once half of fan-out. Every
// TCP client implements it; Local connections do not. A Batcher flushes
// through it when available, so one batch is serialized exactly once no
// matter how it reaches the socket; a fan-out layer can share one
// codec.Frame (Retain per destination) across every connection whose cache
// needs the same batch, dropping the per-destination cost to a write
// syscall.
type FrameSender interface {
	// SendFrame writes one pre-encoded frame. The caller keeps ownership of
	// the frame (release it after the call; retain it per extra holder).
	SendFrame(*codec.Frame) error
}

// FrameRunSender is the optional capability of a FrameSender that writes a
// run of pre-encoded frames in one call — one writev on a TCP client — so a
// sender that finds several frames queued for one connection pays one system
// call and one reader wake-up for all of them. The bytes on the wire are
// those of one SendFrame per frame, in order. Every TCP client implements it.
type FrameRunSender interface {
	// SendFrames writes the frames in order. The caller keeps ownership of
	// every frame and may reuse the slice once the call returns. A failure
	// may have written any prefix of the run, so the connection is closed.
	SendFrames([]*codec.Frame) error
}
