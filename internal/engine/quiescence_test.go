package engine

import (
	"testing"

	"bestsync/internal/bandwidth"
	"bestsync/internal/metric"
	"bestsync/internal/workload"
)

// TestQuiescenceParksLoweredObject runs the script of the runtime test of the
// same name (ROADMAP item 12) through the simulator: the cache holds 0, the
// object is raised to 10 and, before the next tick, lowered to 1, then 10⁴
// quiet ticks follow with ample bandwidth. It records today's answer for the
// paper's algorithm and for the idealised scheduler of §3.3 alike: the same
// AreaGeneral priority turns non-positive at the drop and stays so, the
// object leaves its source's queue and the cache never sees the 1.
func TestQuiescenceParksLoweredObject(t *testing.T) {
	for _, policy := range []Policy{Cooperative, IdealCooperative} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := Config{
				Seed: 1, Sources: 1, ObjectsPerSource: 1,
				Metric:   metric.ValueDeviation,
				Duration: 10_002,
				CacheBW:  bandwidth.Const(100),
				Policy:   policy,
				// P(1.9) = 1.9 × 1 − 0.8 × 10 < 0
				Traces: []*workload.Trace{{Times: []float64{1.1, 1.9}, Values: []float64{10, 1}}},
			}
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			e := newEngine(&cfg)
			e.run()
			o := &e.objs[0]
			if o.value != 1 || o.cacheVal != 0 || e.sources[0].Queue.Len() != 0 || e.res.RefreshesSent != 0 {
				t.Errorf("source %v, cache %v, queued %d, refreshes %d; want 1, 0, 0 and 0: the object parks",
					o.value, o.cacheVal, e.sources[0].Queue.Len(), e.res.RefreshesSent)
			}
		})
	}
}
