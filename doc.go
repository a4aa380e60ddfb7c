// Package bestsync is a from-scratch Go implementation of best-effort cache
// synchronization with source cooperation (Olston & Widom, SIGMOD 2002).
//
// The repository has two halves sharing the same protocol core
// (internal/core, internal/metric, internal/priority):
//
//   - a discrete-event simulation half (internal/engine, internal/cgm,
//     internal/experiments) that reproduces the paper's tables and figures
//     on a virtual clock, and
//   - a live half (internal/runtime, internal/transport, internal/wire)
//     that runs the same protocol over wall-clock time and TCP, with a
//     one-writer cache store, batched refresh framing, fan-out
//     sources, relay tiers (cache→cache hierarchy: a cache that
//     re-exports applied refreshes to downstream children), and a
//     pluggable sync-policy layer (runtime.Policy: the paper's
//     source-cooperative push, or the cache-driven CGM polling baselines
//     of §6.3 run live) for production-scale topologies.
//
// Runnable entry points:
//
//   - cmd/syncbench — regenerate the paper's tables and figures, or (with
//     -policy / -topology) compare sync policies and topology shapes on
//     the live runtime
//   - cmd/syncsim   — run one simulation with custom parameters
//   - cmd/cachesyncd, cmd/sourceagent — live TCP cache and source daemons
//   - examples/*    — library usage walkthroughs
//
// The benchmarks in bench_test.go map one-to-one onto the experiment
// registry of internal/experiments, plus the simulation engines' per-run
// cost; the live hot path is measured by the benchmark/ module
// (BENCHMARK.json, bash benchmark/run.sh).
//
// Documentation lives under docs/: docs/README.md is the index,
// docs/architecture.md maps the packages and the data flow,
// docs/operations.md covers every daemon flag and benchmark schema, and
// docs/algorithm-specifications.md is the formal algorithm specification
// (divergence metrics, priority functions, threshold feedback loop, CGM
// allocation, fan-out shares, relay divergence accounting). README.md has
// quickstart transcripts.
package bestsync
