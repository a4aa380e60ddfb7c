package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"bestsync/internal/metric"
	"bestsync/internal/runtime"
)

// policyResult is one measured (policy, transport, workload) cell of the
// live push-vs-poll comparison — the wall-clock analogue of Figure 6 (§6.3).
type policyResult struct {
	Scenario       string  `json:"scenario"` // <policy>-<transport>[-z<s>]
	Policy         string  `json:"policy"`   // push | ideal | cgm1 | cgm2
	Transport      string  `json:"transport"`
	Objects        int     `json:"objects"`
	DurationS      float64 `json:"duration_s"`
	BandwidthMsgsS float64 `json:"bandwidth_msgs_per_s"`
	MsgCost        float64 `json:"msg_cost_per_refresh"`
	// ZipfS is the Zipf exponent of a skewed-workload sweep point; zero
	// means the uniform round-robin workload.
	ZipfS   float64 `json:"zipf_s,omitempty"`
	Updates int     `json:"updates"`
	// Refreshes counts values actually installed at the cache.
	Refreshes int `json:"refreshes"`
	// Messages counts everything on the wire: refreshes + feedback for
	// push; poll requests + reply items for the cache-driven modes.
	Messages int     `json:"messages"`
	MsgsPerS float64 `json:"msgs_per_s"`
	// Poll-mode extras (zero for push).
	Polls    int `json:"polls,omitempty"`
	Resolves int `json:"resolves,omitempty"`
	// MeanDivergence is the time-averaged mean |cache − canonical| over the
	// steady-state portion of the run (~100ms samples after a warm-up
	// third, plus the settled end state) — the paper's objective.
	MeanDivergence float64 `json:"mean_divergence"`
}

// policySweep is the policy order of the sweep (and of Figure 6's curves).
var policySweep = []runtime.Policy{
	runtime.PolicyPush, runtime.PolicyIdeal, runtime.PolicyCGM1, runtime.PolicyCGM2,
}

// runPolicyMode runs the live §6.3 comparison: one source, one cache, the
// same paced workload and the same message budget for every policy, over
// both transports. The paper's claim under test is the ordering —
// source-cooperative push should end no more diverged than the CGM polling
// baselines at equal budget (polls pay a 2-message round trip and estimate
// rates; push pays 1 message and KNOWS what changed). Each zipf exponent
// adds a skewed-workload sweep point on top of the uniform one. Results go
// to stdout and BENCH_policy.json. seed draws the Zipf picks and the poll
// phases.
func runPolicyMode(objects int, rate, bandwidth float64, duration, resolveEvery time.Duration, zipf []float64, seed int64) {
	fmt.Printf("# sync policies: 1 source -> 1 cache, %d objects, %.0f updates/s, %.0f msgs/s budget, %s per scenario, re-solve %s\n\n",
		objects, rate, bandwidth, duration, resolveEvery)
	fmt.Printf("%-18s %6s %10s %12s %10s %10s %16s\n",
		"scenario", "cost", "updates", "refreshes", "messages", "msgs/s", "mean divergence")
	sweep := append([]float64{0}, zipf...)
	var results []policyResult
	divergence := map[string]float64{}
	for _, zipfS := range sweep {
		for _, tcp := range []bool{false, true} {
			for _, policy := range policySweep {
				r := measurePolicy(tcp, policy, objects, rate, bandwidth, duration, resolveEvery, zipfS, seed)
				results = append(results, r)
				divergence[r.Scenario] = r.MeanDivergence
				fmt.Printf("%-18s %6.0f %10d %12d %10d %10.1f %16.4f\n",
					r.Scenario, r.MsgCost, r.Updates, r.Refreshes, r.Messages, r.MsgsPerS, r.MeanDivergence)
			}
		}
	}
	fmt.Println()
	for _, zipfS := range sweep {
		for _, transport := range []string{"local", "tcp"} {
			suffix := scenarioSuffix(transport, zipfS)
			push := divergence["push"+suffix]
			for _, cgm := range []string{"cgm1", "cgm2"} {
				poll := divergence[cgm+suffix]
				verdict := "push wins (paper §6.3 ordering)"
				if push > poll {
					verdict = "ORDERING VIOLATED"
				}
				fmt.Printf("# %s: push %.4f vs %s %.4f — %s\n", suffix[1:], push, cgm, poll, verdict)
			}
		}
	}
	if err := writeBenchJSON("BENCH_policy.json", results); err != nil {
		fmt.Printf("syncbench: writing BENCH_policy.json: %v\n", err)
		return
	}
	fmt.Println("\nwrote BENCH_policy.json")
}

// scenarioSuffix builds the "-<transport>[-z<s>]" tail of a scenario name.
func scenarioSuffix(transportName string, zipfS float64) string {
	s := "-" + transportName
	if zipfS > 0 {
		s += fmt.Sprintf("-z%g", zipfS)
	}
	return s
}

// pacedPickWalk drives src with a paced ±1 random walk like pacedRandomWalk
// but lets the caller choose which object each step hits — round-robin for
// the uniform workload, a Zipf draw for the skewed sweep points — and, when
// sample is non-nil, hands it the live canonical values every ~100ms so the
// caller can integrate divergence over time (the paper's metric) instead of
// judging one end-state snapshot. The callback runs on the walk goroutine,
// so reading values inside it is race-free.
func pacedPickWalk(src *runtime.Source, prefix string, objects int, rate float64, duration time.Duration, pick func(step int) int, sample func(values []float64)) ([]float64, float64) {
	values := make([]float64, objects)
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Millisecond
	}
	start := time.Now()
	lastSample := start
	step := 1
	for time.Since(start) < duration {
		i := pick(step)
		if step%2 == 0 {
			values[i]++
		} else {
			values[i]--
		}
		src.Update(fmt.Sprintf("%s/obj-%d", prefix, i), values[i])
		step++
		if sample != nil && time.Since(lastSample) >= 100*time.Millisecond {
			sample(values)
			lastSample = time.Now()
		}
		time.Sleep(interval)
	}
	time.Sleep(150 * time.Millisecond)
	return values, time.Since(start).Seconds()
}

// measurePolicy runs one (policy, transport, workload) cell and audits the
// cache against the canonical values.
func measurePolicy(tcp bool, policy runtime.Policy, objects int, rate, bandwidth float64, duration, resolveEvery time.Duration, zipfS float64, seed int64) policyResult {
	transportName := "local"
	if tcp {
		transportName = "tcp"
	}
	res := policyResult{
		Scenario:       policy.String() + scenarioSuffix(transportName, zipfS),
		Policy:         policy.String(),
		Transport:      transportName,
		Objects:        objects,
		BandwidthMsgsS: bandwidth,
		MsgCost:        policy.MessageCost(),
		ZipfS:          zipfS,
	}

	// The cache's message budget is the comparison axis. Ideal mode KNOWS
	// each object's λ: rate/objects on the uniform round-robin walk, the
	// Zipf pmf share on a skewed sweep point.
	trueRate := func(string) float64 { return rate / float64(objects) }
	if zipfS > 0 {
		probs := zipfProbs(objects, zipfS)
		trueRate = func(id string) float64 {
			var k int
			if _, err := fmt.Sscanf(id, "bench-policy/obj-%d", &k); err != nil || k < 0 || k >= objects {
				return rate / float64(objects)
			}
			return rate * probs[k]
		}
	}
	node := newBenchNodeCfg(tcp, runtime.CacheConfig{
		ID:        "policy-cache",
		Bandwidth: bandwidth,
		Tick:      10 * time.Millisecond,
		Policy:    policy,
		Poll: runtime.PollConfig{
			ReSolveEvery: resolveEvery,
			Seed:         seed,
			TrueRate:     trueRate,
		},
	})
	// The source-side budget: B for push (the source is the sender),
	// effectively unconstrained for the cache-driven modes — the
	// CGM model assumes no source-side limit, only cache-side capacity
	// (internal/cgm.Config), and the cache's charged polls already bound
	// the message total.
	srcBW := bandwidth
	if policy.CacheDriven() {
		srcBW = bandwidth * 10
	}
	src := runtime.NewSource(runtime.SourceConfig{
		ID:        "bench-policy",
		Metric:    metric.ValueDeviation,
		Bandwidth: srcBW,
		Tick:      10 * time.Millisecond,
		Policy:    policy,
	}, node.dial("bench-policy"))

	pick := policyPick(objects, zipfS, seed)
	// Time-averaged divergence, the paper's objective: sample the cache
	// against the live canonical values through the run, discarding the
	// bootstrap third (discovery, estimator warm-up, threshold settling)
	// so every policy is judged on its steady state.
	var divSum float64
	var divN int
	warm := time.Now().Add(duration / 3)
	sample := func(values []float64) {
		if time.Now().Before(warm) {
			return
		}
		divSum += meanAbsDivergence(node.cache, "bench-policy", values)
		divN++
	}
	values, elapsed := pacedPickWalk(src, "bench-policy", objects, rate, duration, pick, sample)
	res.DurationS = elapsed

	cs := node.cache.Stats()
	st := src.Stats()
	res.Updates = st.Updates
	res.Refreshes = cs.Refreshes
	if policy.CacheDriven() {
		res.Polls = cs.Polls
		res.Resolves = cs.Resolves
		// Replies always count; requests count only for the practical
		// modes — §6.3's ideal assumes free requests, and the budget
		// charged them that way.
		res.Messages = cs.PollReplies + int(policy.MessageCost()-1)*cs.Polls
	} else {
		res.Messages = st.Refreshes + cs.Feedbacks
	}
	res.MsgsPerS = float64(res.Messages) / elapsed
	divSum += meanAbsDivergence(node.cache, "bench-policy", values) // settled end state
	res.MeanDivergence = divSum / float64(divN+1)

	src.Close()
	node.cleanup()
	return res
}

// policyPick returns the workload's object for each step: a round-robin walk,
// or Zipf(zipfS) picks over the object ranks drawn from seed.
func policyPick(objects int, zipfS float64, seed int64) func(step int) int {
	if zipfS <= 0 {
		return func(step int) int { return step % objects }
	}
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), zipfS, 1, uint64(objects-1))
	return func(int) int { return int(z.Uint64()) }
}

// zipfProbs returns the Zipf(s) pmf over n ranks, matching rand.NewZipf's
// P(k) ∝ 1/(1+k)^s parameterization (v = 1).
func zipfProbs(n int, s float64) []float64 {
	probs := make([]float64, n)
	sum := 0.0
	for k := range probs {
		probs[k] = 1 / math.Pow(float64(1+k), s)
		sum += probs[k]
	}
	for k := range probs {
		probs[k] /= sum
	}
	return probs
}
