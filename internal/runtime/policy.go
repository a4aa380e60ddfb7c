package runtime

import (
	"fmt"
	"strings"
)

// Policy selects the synchronization policy a source↔cache pairing runs —
// the pluggable axis the in-network-caching literature calls the
// cooperation policy. The same transports, stores and budget machinery
// serve every policy; what changes is WHO decides when an object's new
// value crosses the wire:
//
//   - PolicyPush: the paper's source-cooperative protocol (§5–7). The
//     source watches its objects, ranks them with the Section 3 priority
//     functions, and pushes those above its adaptive threshold; the cache
//     answers with surplus-driven feedback. One message per refresh.
//   - PolicyIdeal, PolicyCGM1, PolicyCGM2: the cache-driven polling
//     baseline of §6.3 (Cho & Garcia-Molina). The CACHE schedules per-object
//     poll frequencies from cgm.OptimalAllocation and asks; the source only
//     answers. Ideal assumes known update rates and free requests (one
//     message per refresh — the response); CGM1/CGM2 estimate rates live
//     (last-modified / binary change bit) and pay the round trip (two
//     messages per refresh).
//
// There is no per-object mix of the two: at equal budget push beat a hybrid
// that pushed the hot head and polled the cold tail at every measured point
// (spec §9), so a pairing runs one regime for all its objects.
//
// Sources and caches must agree on the policy: a push source never polls
// and a polling cache sends no feedback, so a mismatched pairing simply
// synchronizes nothing.
type Policy int

const (
	// PolicyPush is the source-cooperative push protocol (default).
	PolicyPush Policy = iota
	// PolicyIdeal is ideal cache-based polling: known update rates, free
	// poll requests (1 msg/refresh). Live deployments supply the "known"
	// rates via PollConfig.TrueRate; without it the policy degrades to
	// CGM1's estimates (still at ideal message cost).
	PolicyIdeal
	// PolicyCGM1 is cache-driven polling with the last-modified estimator
	// (2 msgs/refresh).
	PolicyCGM1
	// PolicyCGM2 is cache-driven polling with the binary change-bit
	// estimator (2 msgs/refresh).
	PolicyCGM2
)

// String names the policy as in Figure 6 (flag-friendly forms).
func (p Policy) String() string {
	switch p {
	case PolicyPush:
		return "push"
	case PolicyIdeal:
		return "ideal"
	case PolicyCGM1:
		return "cgm1"
	case PolicyCGM2:
		return "cgm2"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses a -mode flag value. "poll" is accepted as an alias for
// "ideal" (the generic cache-driven mode).
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "push":
		return PolicyPush, nil
	case "poll", "ideal":
		return PolicyIdeal, nil
	case "cgm1":
		return PolicyCGM1, nil
	case "cgm2":
		return PolicyCGM2, nil
	default:
		return PolicyPush, fmt.Errorf("runtime: unknown sync policy %q (want push, poll/ideal, cgm1 or cgm2)", s)
	}
}

// CacheDriven reports whether the cache initiates synchronization (the
// polling policies). Nodes running one need a poll endpoint/connection.
func (p Policy) CacheDriven() bool { return p != PolicyPush }

// Pushes reports whether the source initiates refreshes (PolicyPush).
func (p Policy) Pushes() bool { return p == PolicyPush }

// MessageCost is the number of wire messages one refreshed object costs
// under this policy: 1 for push (the refresh) and ideal polling (free
// requests, per §6.3), 2 for the practical polling modes (request +
// response). Equal-budget comparisons divide the message budget by this cost
// to get the refresh budget.
func (p Policy) MessageCost() float64 {
	switch p {
	case PolicyCGM1, PolicyCGM2:
		return 2
	default:
		return 1
	}
}
