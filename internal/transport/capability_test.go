package transport

import (
	"testing"
	"time"

	"bestsync/internal/wire"
)

// cooperationReporter is the capability view the runtime's hybrid poll
// scheduler type-asserts on its endpoint; both server implementations must
// provide it.
type cooperationReporter interface {
	PeerCooperates(sourceID string) bool
}

func waitCooperates(t *testing.T, rep cooperationReporter, id string, want bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if rep.PeerCooperates(id) == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("PeerCooperates(%q) never became %v", id, want)
}

// TestCapabilityNegotiationPerCodec: a hybrid-capable client's Hello carries
// wire.CapCooperative through the binary codec, the one TCP encoding, and the
// server reports it via PeerCooperates; a client with no capabilities set
// reads as non-cooperative (the gate defaults closed).
func TestCapabilityNegotiationPerCodec(t *testing.T) {
	srv, addr := serveTCP(t)
	rep := srv.(cooperationReporter)

	t.Run("binary", func(t *testing.T) {
		SetDialCapabilities(wire.CapCooperative)
		defer SetDialCapabilities(0)
		conn, err := Dial(addr, "coop")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		waitCooperates(t, rep, "coop", true)

		SetDialCapabilities(0)
		plain, err := Dial(addr, "plain")
		if err != nil {
			t.Fatal(err)
		}
		defer plain.Close()
		waitCooperates(t, rep, "plain", false)
	})
}

// TestCapabilityLocalTransport: the in-process transport stamps the same
// process-wide capability mask at Dial and reports it per source.
func TestCapabilityLocalTransport(t *testing.T) {
	local := NewLocal(8)
	defer local.Close()

	SetDialCapabilities(wire.CapCooperative)
	coop, err := local.Dial("coop")
	SetDialCapabilities(0)
	if err != nil {
		t.Fatal(err)
	}
	defer coop.Close()
	plain, err := local.Dial("plain")
	if err != nil {
		t.Fatal(err)
	}

	if !local.PeerCooperates("coop") {
		t.Error("cooperative local dial not reported")
	}
	if local.PeerCooperates("plain") {
		t.Error("plain local dial reported cooperative")
	}
	// Capabilities are per-connection state: they die with the conn, so a
	// restarted peer must re-advertise rather than inherit.
	plain.Close()
	if local.PeerCooperates("plain") {
		t.Error("capability survived the connection")
	}
}
