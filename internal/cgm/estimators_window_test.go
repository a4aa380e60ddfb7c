package cgm

import (
	"math"
	"math/rand"
	"testing"
)

// feedPoissonPolls drives est (via the observe callback) with a seeded
// Poisson update stream at rate lambda, polled at a fixed 1s interval, and
// returns the relative estimation error at each requested checkpoint. The
// stream is fully determined by the seed, so the checkpoint errors are
// reproducible run to run.
func feedPoissonPolls(seed int64, lambda float64, checkpoints []int,
	observe func(changed bool, interval, age float64), estimate func() float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	tPrev := 0.0
	lastUpdate := math.Inf(-1)
	nextUpdate := rng.ExpFloat64() / lambda
	errs := make([]float64, 0, len(checkpoints))
	next := 0
	last := checkpoints[len(checkpoints)-1]
	for poll := 1; poll <= last; poll++ {
		now := float64(poll)
		for nextUpdate <= now {
			lastUpdate = nextUpdate
			nextUpdate += rng.ExpFloat64() / lambda
		}
		observe(lastUpdate > tPrev, now-tPrev, now-lastUpdate)
		tPrev = now
		if next < len(checkpoints) && poll == checkpoints[next] {
			errs = append(errs, math.Abs(estimate()-lambda)/lambda)
			next++
		}
	}
	return errs
}

// TestEstimatorsConvergeWithinBoundedWindow pins the convergence CONTRACT the
// CGM poll scheduler leans on: both
// estimators must be within 25% of a known synthetic rate after a bounded
// number of observations — not merely in the infinite-poll limit — and must
// then STAY inside the band at every later checkpoint (no late divergence).
func TestEstimatorsConvergeWithinBoundedWindow(t *testing.T) {
	const window = 1500 // observations allowed before the 25% band binds
	checkpoints := []int{window, 2500, 4000, 6000}
	for _, lambda := range []float64{0.1, 0.3, 0.5} {
		var e1 LastModifiedEstimator
		errs1 := feedPoissonPolls(11, lambda, checkpoints,
			e1.Observe, e1.Estimate)
		var e2 BinaryEstimator
		errs2 := feedPoissonPolls(11, lambda, checkpoints,
			func(changed bool, interval, _ float64) { e2.Observe(changed, interval) },
			e2.Estimate)
		for i, cp := range checkpoints {
			if errs1[i] > 0.25 {
				t.Errorf("CGM1 λ=%v: %.1f%% off after %d polls, want ≤25%%",
					lambda, 100*errs1[i], cp)
			}
			if errs2[i] > 0.25 {
				t.Errorf("CGM2 λ=%v: %.1f%% off after %d polls, want ≤25%%",
					lambda, 100*errs2[i], cp)
			}
		}
	}
}

// TestEstimatorConvergenceTightens asserts the error band shrinks with more
// data: the mean relative error across seeds at the late checkpoint must not
// exceed the early one (averaged so a single unlucky stream cannot flip the
// comparison).
func TestEstimatorConvergenceTightens(t *testing.T) {
	const lambda = 0.3
	checkpoints := []int{300, 8000}
	var early1, late1, early2, late2 float64
	const seeds = 5
	for seed := int64(0); seed < seeds; seed++ {
		var e1 LastModifiedEstimator
		errs1 := feedPoissonPolls(seed, lambda, checkpoints, e1.Observe, e1.Estimate)
		early1 += errs1[0] / seeds
		late1 += errs1[1] / seeds
		var e2 BinaryEstimator
		errs2 := feedPoissonPolls(seed, lambda, checkpoints,
			func(changed bool, interval, _ float64) { e2.Observe(changed, interval) },
			e2.Estimate)
		early2 += errs2[0] / seeds
		late2 += errs2[1] / seeds
	}
	if late1 > early1 {
		t.Errorf("CGM1 error grew with data: %.3f after %d polls vs %.3f after %d",
			late1, checkpoints[1], early1, checkpoints[0])
	}
	if late2 > early2 {
		t.Errorf("CGM2 error grew with data: %.3f after %d polls vs %.3f after %d",
			late2, checkpoints[1], early2, checkpoints[0])
	}
}

// TestEstimatorsDeterministic pins that the same synthetic stream yields the
// same estimate bit for bit — the property the bounded-window assertions
// above stand on.
func TestEstimatorsDeterministic(t *testing.T) {
	run := func() (float64, float64) {
		var e1 LastModifiedEstimator
		var e2 BinaryEstimator
		feedPoissonPolls(42, 0.3, []int{2000}, e1.Observe, e1.Estimate)
		feedPoissonPolls(42, 0.3, []int{2000},
			func(changed bool, interval, _ float64) { e2.Observe(changed, interval) },
			e2.Estimate)
		return e1.Estimate(), e2.Estimate()
	}
	a1, a2 := run()
	b1, b2 := run()
	if a1 != b1 || a2 != b2 {
		t.Errorf("same seed diverged: CGM1 %v vs %v, CGM2 %v vs %v", a1, b1, a2, b2)
	}
}
