package main

import (
	"time"

	"bestsync/internal/core"
)

// Settings shared by every workload (ISSUE 12, "common harness rules").
const (
	tick          = 10 * time.Millisecond // protocol tick of every Source, Node and Cache
	warmupSeconds = 3                     // load before the window opens; a shorter window warms up for its own length
	slotNs        = int64(time.Millisecond)
	readBlock     = 32                           // Gets per timed reader block
	lateLimitNs   = 10 * int64(time.Millisecond) // p99 generator lateness above this flags the window as disturbed
	drainTime     = 2 * time.Second              // quiescence allowed after the generator stops
	serveBuffer   = 64                           // transport.Serve batch-channel depth, the daemons' value
	groupQueue    = 256
	// coverCap bounds how many of the versions a coalesced apply covers are
	// timed: the most recent 64, the issue's "ring of the last 64 issues per
	// object". Without it the population of (update, leaf) pairs on poll_zipf is
	// whatever hot object happened to be polled (thousands of versions per
	// reply) and the percentiles are not reproducible; see README.
	coverCap = 64
)

// pinnedParams fixes the threshold so that every update is over threshold: the
// capacity workloads measure the pipeline, not the feedback loop.
var pinnedParams = core.Params{Alpha: 1, Omega: 1, InitialThreshold: 1e-6, DisableBeta: true}

type pickKind int

const (
	pickRoundRobin pickKind = iota // object i, i+1, ... (required on the pinned per-session path, see README "known seed hazards")
	pickStar                       // src-0 with probability 3/4, uniform within the source
	pickZipf                       // Zipf(s=zipfS) over the object ranks
)

// workload is one normative scenario. The numbers are the issue's; only the
// window length comes from the command line.
type workload struct {
	name    string
	why     string
	origins int
	objects int // total over all origins
	rate    int // updates offered per second
	pick    pickKind
	leaves  int
	copies  int  // nodes holding a copy of each object (heap_bytes_per_object denominator)
	pinned  bool // thresholds pinned: every leaf must converge to the final version
	polled  bool // cache-driven: set-up ends at two resolves, not at a full store
	setups  int  // set-ups per run; setup_s is their median
	reads   int  // Cache.Get calls per second against leaf-0 (0: no reader)
	stride  int  // traced run samples objects whose index is a multiple of stride
	build   func(h *harness) (*topology, error)
}

var workloads = []*workload{
	{
		name: "paper_star", origins: 2, objects: 4096, rate: 50000, pick: pickStar,
		leaves: 1, copies: 2, setups: 3, stride: 1,
		why:   "the paper's regime: two origins under a 1000 msg/s cache budget, so 98% of updates coalesce and the scheduler (priority queue, threshold, feedback) does the work while codec and transport idle",
		build: buildPaperStar,
	},
	{
		name: "tree_firehose", origins: 1, objects: 16384, rate: 100000, pick: pickRoundRobin,
		leaves: 2, copies: 4, pinned: true, setups: 9, stride: 16,
		why:   "pipeline-bound on the group and splice path: every update crosses origin, relay and two leaves over TCP, so codec, transport, shard apply and Node.onForward dominate",
		build: buildTreeFirehose,
	},
	{
		name: "fanout_classic", origins: 1, objects: 16384, rate: 50000, pick: pickRoundRobin,
		leaves: 4, copies: 5, pinned: true, setups: 9, reads: 50000, stride: 16,
		why:   "the same layers on the per-session path behind a Batcher with a 50k Get/s reader beside the writes, the path a single push pipeline would delete",
		build: buildFanoutClassic,
	},
	{
		name: "poll_zipf", origins: 1, objects: 2048, rate: 20000, pick: pickZipf,
		leaves: 1, copies: 2, polled: true, setups: 3, stride: 1,
		why:   "the same Source, Cache, codec and transport driven in the other direction: the cache polls under CGM1 estimates, so a push-path change that costs the poll path shows only here",
		build: buildPollZipf,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

type metricDef struct{ name, unit string }

// endToEnd lists what an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"visible_p50_ms", "ms"},
	{"visible_p99_ms", "ms"},
	{"cpu_us_per_update", "us"},
	{"allocs_per_update", "1"},
	{"heap_bytes_per_object", "B"},
	{"divergence_avg", "value"},
}

// bounds is the share of the base's median by which an end-to-end metric may
// worsen before -compare calls it worse. BENCHMARK.json has room for one bound
// per metric, so it carries `all`, which the metric's noisiest workload sets;
// `quiet` lists the workloads whose own ten-run spread supports the tighter
// bound ISSUE 12 proposed, and -compare judges those by it (README, "Bounds").
var bounds = map[string]struct {
	all   float64
	quiet map[string]float64
}{
	"setup_s":               {all: 0.25, quiet: map[string]float64{"paper_star": 0.10, "poll_zipf": 0.10}},
	"visible_p50_ms":        {all: 0.20, quiet: map[string]float64{"paper_star": 0.10}},
	"visible_p99_ms":        {all: 0.25, quiet: map[string]float64{"paper_star": 0.15}},
	"cpu_us_per_update":     {all: 0.25},
	"allocs_per_update":     {all: 0.10},
	"heap_bytes_per_object": {all: 0.10},
	"divergence_avg":        {all: 0.20, quiet: map[string]float64{"paper_star": 0.05}},
}

func boundFor(metric, workload string) float64 {
	b := bounds[metric]
	if q, ok := b.quiet[workload]; ok {
		return q
	}
	return b.all
}

// spanNames are the traced run's spans, each reported as _p50 and _mean.
var spanNames = []metricDef{
	{"source.update_call_ns", "ns"},
	{"source.sched_wait_ms", "ms"},
	{"transport.hop1_ms", "ms"},
	{"node.forward_ms", "ms"},
	{"transport.hop2_ms", "ms"},
	{"cache.apply_ms", "ms"},
	{"trace.unattributed_ms", "ms"},
}

var counterNames = []metricDef{
	{"trace.overhead_share", "1"},
	{"source.coalesced_share", "1"},
	{"source.suppressed_share", "1"},
	{"source.budget_use", "1"},
	{"source.threshold_final", "value"},
	{"source.send_errors", "count"},
	{"source.unconverged_share", "1"},
	{"transport.refreshes_per_frame", "1"},
	{"transport.bytes_per_refresh", "B"},
	{"cache.budget_use", "1"},
	{"cache.stale_share", "1"},
	{"cache.feedbacks_per_s", "1/s"},
	{"cache.polls_per_s", "1/s"},
	{"cache.reply_items_per_poll", "1"},
	{"cache.resolves", "count"},
	{"read_p50_us", "us"},
	{"cache.get_p99_us", "us"},
	{"node.splice_share", "1"},
	{"node.splice_fallbacks", "count"},
	{"group.detaches", "count"},
	{"group.queue_overruns", "count"},
	{"group.fallbacks", "count"},
	{"gen.late_p99_ms", "ms"},
	{"gen.late_max_ms", "ms"},
}

var driverNames = []metricDef{
	{"codec.encode_ns_per_refresh", "ns"},
	{"codec.decode_ns_per_refresh", "ns"},
	{"codec.splice_ns_per_refresh", "ns"},
	{"codec.frame_bytes_per_refresh", "B"},
	{"codec.allocs_per_batch", "1"},
	{"transport.tcp_ns_per_refresh", "ns"},
	{"transport.tcp_ns_per_refresh_b1", "ns"},
	{"transport.batcher_ns_per_refresh", "ns"},
	{"transport.local_ns_per_refresh", "ns"},
	{"cache.apply_cpu_ns_per_refresh", "ns"},
	{"cache.apply_allocs_per_refresh", "1"},
	{"cache.get_ns", "ns"},
	{"source.update_ns", "ns"},
	{"source.update_group_ns", "ns"},
	{"source.update_polled_ns", "ns"},
	{"source.deliver_cpu_ns_per_refresh", "ns"},
	{"group.deliver_cpu_ns_per_refresh", "ns"},
	{"node.forward_classic_cpu_ns_per_refresh", "ns"},
	{"node.forward_splice_cpu_ns_per_refresh", "ns"},
	{"node.forward_splice_allocs_per_refresh", "1"},
	{"priority.queue_ns_per_op", "ns"},
	{"metric.tracker_ns_per_update", "ns"},
	{"cgm.alloc_us_per_solve", "us"},
	{"engine.updates_per_s", "1/s"},
	{"engine.avg_divergence", "value"},
}

// perLayer lists what a traced run reports, on every workload: spans, the
// counters at the same boundaries, and the isolated drivers.
func perLayer() []metricDef {
	var out []metricDef
	for _, s := range spanNames {
		out = append(out, metricDef{s.name + "_p50", s.unit}, metricDef{s.name + "_mean", s.unit})
	}
	out = append(out, counterNames...)
	return append(out, driverNames...)
}
