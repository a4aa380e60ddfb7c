package bestsync_test

import (
	"testing"

	"bestsync/internal/bandwidth"
	"bestsync/internal/cgm"
	"bestsync/internal/engine"
	"bestsync/internal/experiments"
	"bestsync/internal/metric"
	"bestsync/internal/workload"

	"math/rand"
)

// Experiment benchmarks: each runs the Quick-scale version of one paper
// experiment (see DESIGN.md §3 for the index). One iteration regenerates the
// experiment's full table/figure data, so expect seconds per iteration for
// the figure-scale benches; run with -benchtime=1x for a single pass.

func benchExperiment(b *testing.B, id string) {
	runner := experiments.Registry()[id]
	if runner == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := runner(experiments.Quick, int64(i)+1)
		if len(out.Tables)+len(out.Figures) == 0 {
			b.Fatal("experiment produced no output")
		}
	}
}

func BenchmarkE1Validation(b *testing.B)         { benchExperiment(b, "e1") }
func BenchmarkE2Skew(b *testing.B)               { benchExperiment(b, "e2") }
func BenchmarkP1ParamSweep(b *testing.B)         { benchExperiment(b, "p1") }
func BenchmarkF4RatioToIdeal(b *testing.B)       { benchExperiment(b, "f4") }
func BenchmarkF5Buoys(b *testing.B)              { benchExperiment(b, "f5") }
func BenchmarkF6VsCGM(b *testing.B)              { benchExperiment(b, "f6") }
func BenchmarkA1FeedbackPolarity(b *testing.B)   { benchExperiment(b, "a1") }
func BenchmarkA2BetaAblation(b *testing.B)       { benchExperiment(b, "a2") }
func BenchmarkA3FeedbackTargeting(b *testing.B)  { benchExperiment(b, "a3") }
func BenchmarkA4RateEstimation(b *testing.B)     { benchExperiment(b, "a4") }
func BenchmarkE7Competitive(b *testing.B)        { benchExperiment(b, "e7") }
func BenchmarkE8Bounding(b *testing.B)           { benchExperiment(b, "e8") }
func BenchmarkE9Sampling(b *testing.B)           { benchExperiment(b, "e9") }
func BenchmarkE10CostAware(b *testing.B)         { benchExperiment(b, "e10") }
func BenchmarkE11DeltaEncoding(b *testing.B)     { benchExperiment(b, "e11") }
func BenchmarkE12Batching(b *testing.B)          { benchExperiment(b, "e12") }
func BenchmarkE13MutualConsistency(b *testing.B) { benchExperiment(b, "e13") }

// Component benchmarks: per-run cost of the simulation engines themselves,
// useful for estimating full-grid runtimes.

func engineBenchConfig(policy engine.Policy) engine.Config {
	rng := rand.New(rand.NewSource(7))
	const m, n = 10, 50
	return engine.Config{
		Seed:             7,
		Sources:          m,
		ObjectsPerSource: n,
		Metric:           metric.ValueDeviation,
		Duration:         300,
		Warmup:           50,
		CacheBW:          bandwidth.Const(float64(m*n) / 4),
		SourceBW:         bandwidth.Const(float64(n)),
		Rates:            workload.UniformRates(rng, m*n, 0.05, 1),
		Policy:           policy,
	}
}

func BenchmarkEngineCooperative(b *testing.B) {
	cfg := engineBenchConfig(engine.Cooperative)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		res := engine.MustRun(cfg)
		if res.RefreshesDelivered == 0 {
			b.Fatal("no refreshes")
		}
	}
}

func BenchmarkEngineIdealCooperative(b *testing.B) {
	cfg := engineBenchConfig(engine.IdealCooperative)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		res := engine.MustRun(cfg)
		if res.RefreshesDelivered == 0 {
			b.Fatal("no refreshes")
		}
	}
}

func BenchmarkCGMPollingEngine(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	cfg := cgm.Config{
		Seed:     7,
		Objects:  500,
		Duration: 300,
		Warmup:   50,
		CacheBW:  bandwidth.Const(125),
		Rates:    workload.UniformRates(rng, 500, 0.05, 1),
		Mode:     cgm.CGM1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		res := cgm.MustRun(cfg)
		if res.Polls == 0 {
			b.Fatal("no polls")
		}
	}
}

func BenchmarkCGMAllocationSolver(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	lambdas := make([]float64, 10000)
	for i := range lambdas {
		lambdas[i] = rng.Float64() * 2
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		freqs := cgm.OptimalAllocation(lambdas, 2500)
		if len(freqs) != len(lambdas) {
			b.Fatal("bad allocation")
		}
	}
}
