package transport

import (
	"testing"
	"time"

	"bestsync/internal/wire"
)

// peerReporter is the capability view the runtime's poll scheduler
// type-asserts on its endpoint; both server implementations must provide it.
type peerReporter interface {
	PeerServesPeers(sourceID string) bool
}

func waitServesPeers(t *testing.T, rep peerReporter, id string, want bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if rep.PeerServesPeers(id) == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("PeerServesPeers(%q) never became %v", id, want)
}

// TestCapabilityNegotiationPerCodec: a peer-serving client's Hello carries
// wire.CapPeer through the binary codec, the one TCP encoding, and the server
// reports it via PeerServesPeers; a client with no capabilities set reads as
// not serving peers (the gate defaults closed). Capabilities are
// per-connection state: they die with the conn.
func TestCapabilityNegotiationPerCodec(t *testing.T) {
	srv, addr := serveTCP(t)
	rep := srv.(peerReporter)

	t.Run("binary", func(t *testing.T) {
		SetDialCapabilities(wire.CapPeer)
		defer SetDialCapabilities(0)
		conn, err := Dial(addr, "peer")
		if err != nil {
			t.Fatal(err)
		}
		waitServesPeers(t, rep, "peer", true)

		SetDialCapabilities(0)
		plain, err := Dial(addr, "plain")
		if err != nil {
			t.Fatal(err)
		}
		defer plain.Close()
		waitServesPeers(t, rep, "plain", false)

		conn.Close()
		waitServesPeers(t, rep, "peer", false)
	})
}

// TestCapabilityLocalTransport: the in-process transport stamps the same
// process-wide capability mask at Dial and reports it per source.
func TestCapabilityLocalTransport(t *testing.T) {
	local := NewLocal(8)
	defer local.Close()

	SetDialCapabilities(wire.CapPeer)
	peer, err := local.Dial("peer")
	SetDialCapabilities(0)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	plain, err := local.Dial("plain")
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	if !local.PeerServesPeers("peer") {
		t.Error("peer-serving local dial not reported")
	}
	if local.PeerServesPeers("plain") {
		t.Error("plain local dial reported as serving peers")
	}
	// Capabilities are per-connection state: they die with the conn, so a
	// restarted peer must re-advertise rather than inherit.
	peer.Close()
	if local.PeerServesPeers("peer") {
		t.Error("capability survived the connection")
	}
}
