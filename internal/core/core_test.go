package core

import (
	"math"
	"slices"
	"testing"
)

func TestDefaultParams(t *testing.T) {
	p := DefaultParams(100, 50)
	if p.Alpha != 1.1 || p.Omega != 10 {
		t.Errorf("defaults = α %v ω %v, want 1.1, 10", p.Alpha, p.Omega)
	}
	if p.ExpectedFeedbackPeriod != 2 {
		t.Errorf("P_feedback = %v, want 2 (= 100/50)", p.ExpectedFeedbackPeriod)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
}

func TestDefaultParamsZeroBandwidth(t *testing.T) {
	p := DefaultParams(10, 0)
	if p.ExpectedFeedbackPeriod != 0 {
		t.Errorf("P_feedback = %v, want 0", p.ExpectedFeedbackPeriod)
	}
}

func TestParamsValidate(t *testing.T) {
	cases := []Params{
		{Alpha: 1, Omega: 10, InitialThreshold: 1},
		{Alpha: 1.1, Omega: 1, InitialThreshold: 1},
		{Alpha: 1.1, Omega: 10, InitialThreshold: 0},
		{Alpha: 1.1, Omega: 10, InitialThreshold: 1, ExpectedFeedbackPeriod: -1},
	}
	for i, p := range cases {
		if p.Validate() == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

func TestFeedbackPolicyString(t *testing.T) {
	cases := map[FeedbackPolicy]string{
		PositiveFeedback:   "positive",
		NegativeFeedback:   "negative",
		NoFeedback:         "none",
		FeedbackPolicy(42): "FeedbackPolicy(42)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func newTestSource(policy FeedbackPolicy) *Source {
	p := Params{Alpha: 1.1, Omega: 10, InitialThreshold: 1, ExpectedFeedbackPeriod: 2}
	return NewSource(0, p, policy)
}

func TestSourceThresholdGrowsOnRefresh(t *testing.T) {
	s := newTestSource(PositiveFeedback)
	s.OnRefreshSent(1) // within P_feedback of lastFeedback=0 → β=1... elapsed 1 ≤ 2
	if math.Abs(s.Threshold()-1.1) > 1e-12 {
		t.Errorf("threshold = %v, want 1.1", s.Threshold())
	}
	if s.Refreshes() != 1 {
		t.Errorf("refreshes = %d, want 1", s.Refreshes())
	}
}

func TestSourceBetaAcceleratesWhenFeedbackOverdue(t *testing.T) {
	s := newTestSource(PositiveFeedback)
	// No feedback since t=0, P_feedback=2: at t=10, β = 5.
	if got := s.Beta(10); math.Abs(got-5) > 1e-12 {
		t.Errorf("Beta(10) = %v, want 5", got)
	}
	// Within the expected period β = 1.
	if got := s.Beta(1.5); got != 1 {
		t.Errorf("Beta(1.5) = %v, want 1", got)
	}
	s.OnRefreshSent(10) // 1.1 * 5
	if math.Abs(s.Threshold()-5.5) > 1e-12 {
		t.Errorf("threshold = %v, want 5.5", s.Threshold())
	}
}

func TestSourceBetaDisabled(t *testing.T) {
	p := Params{Alpha: 1.1, Omega: 10, InitialThreshold: 1,
		ExpectedFeedbackPeriod: 2, DisableBeta: true}
	s := NewSource(0, p, PositiveFeedback)
	if got := s.Beta(100); got != 1 {
		t.Errorf("Beta with DisableBeta = %v, want 1", got)
	}
}

func TestSourceBetaNoPeriod(t *testing.T) {
	p := Params{Alpha: 1.1, Omega: 10, InitialThreshold: 1}
	s := NewSource(0, p, PositiveFeedback)
	if got := s.Beta(100); got != 1 {
		t.Errorf("Beta with zero P_feedback = %v, want 1", got)
	}
}

func TestSourceFeedbackLowersThreshold(t *testing.T) {
	s := newTestSource(PositiveFeedback)
	s.SetThreshold(100)
	s.OnFeedback(5)
	if math.Abs(s.Threshold()-10) > 1e-12 {
		t.Errorf("threshold = %v, want 10", s.Threshold())
	}
	if s.Feedbacks() != 1 {
		t.Errorf("feedbacks = %d, want 1", s.Feedbacks())
	}
	// Feedback receipt resets the β timer.
	if got := s.Beta(6); got != 1 {
		t.Errorf("Beta(6) after feedback at 5 = %v, want 1", got)
	}
}

func TestSourceLimitedIgnoresFeedback(t *testing.T) {
	s := newTestSource(PositiveFeedback)
	s.SetThreshold(100)
	s.SetLimited(true)
	s.OnFeedback(5)
	if s.Threshold() != 100 {
		t.Errorf("limited source changed threshold to %v", s.Threshold())
	}
	if !s.Limited() {
		t.Error("Limited() lost state")
	}
	// But the β timer still resets (feedback was received).
	if got := s.Beta(6); got != 1 {
		t.Errorf("Beta = %v, want 1", got)
	}
}

func TestSourceNegativePolicyInverts(t *testing.T) {
	s := newTestSource(NegativeFeedback)
	s.SetThreshold(10)
	s.OnRefreshSent(1)
	if s.Threshold() >= 10 {
		t.Errorf("negative policy refresh raised threshold to %v", s.Threshold())
	}
	s.SetThreshold(10)
	s.OnFeedback(2)
	if math.Abs(s.Threshold()-100) > 1e-9 {
		t.Errorf("negative policy feedback: threshold = %v, want 100", s.Threshold())
	}
}

func TestSourceNoFeedbackPolicyStatic(t *testing.T) {
	s := newTestSource(NoFeedback)
	s.OnRefreshSent(1)
	s.OnFeedback(2)
	if s.Threshold() != 1 {
		t.Errorf("static policy moved threshold to %v", s.Threshold())
	}
}

func TestSourceThresholdClamped(t *testing.T) {
	s := newTestSource(PositiveFeedback)
	s.SetThreshold(1e-300)
	s.ClampThreshold()
	if s.Threshold() < minThreshold {
		t.Errorf("threshold %v below clamp", s.Threshold())
	}
	s.SetThreshold(1e300)
	s.ClampThreshold()
	if s.Threshold() > maxThreshold {
		t.Errorf("threshold %v above clamp", s.Threshold())
	}
}

func TestSourceShouldSend(t *testing.T) {
	s := newTestSource(PositiveFeedback)
	s.SetThreshold(5)
	if _, _, ok := s.ShouldSend(); ok {
		t.Error("empty queue should not send")
	}
	s.Queue.Upsert(3, 4) // below threshold
	if _, _, ok := s.ShouldSend(); ok {
		t.Error("below-threshold object should not send")
	}
	s.Queue.Upsert(7, 6) // above threshold
	obj, pri, ok := s.ShouldSend()
	if !ok || obj != 7 || pri != 6 {
		t.Errorf("ShouldSend = (%d, %v, %v), want (7, 6, true)", obj, pri, ok)
	}
}

func TestSourceShouldSendIgnoresNonPositive(t *testing.T) {
	s := newTestSource(PositiveFeedback)
	s.SetThreshold(1e-12)
	s.Queue.Upsert(1, 0)
	if _, _, ok := s.ShouldSend(); ok {
		t.Error("zero-priority object should never be sent")
	}
}

func TestCacheObserveAndPick(t *testing.T) {
	c := NewCache(4)
	c.ObserveThreshold(0, 5)
	c.ObserveThreshold(1, 50)
	c.ObserveThreshold(2, 0.5)
	// Source 3 never heard from → +Inf, ranks first.
	targets := c.PickFeedbackTargets(3, false)
	want := []int{3, 1, 0}
	for i, id := range want {
		if targets[i] != id {
			t.Fatalf("targets = %v, want %v", targets, want)
		}
	}
	if c.Feedbacks() != 3 {
		t.Errorf("feedbacks = %d, want 3", c.Feedbacks())
	}
}

func TestCachePickAllWhenKLarge(t *testing.T) {
	c := NewCache(3)
	targets := c.PickFeedbackTargets(10, false)
	if len(targets) != 3 {
		t.Errorf("got %d targets, want 3", len(targets))
	}
}

func TestCachePickZero(t *testing.T) {
	c := NewCache(3)
	if got := c.PickFeedbackTargets(0, false); got != nil {
		t.Errorf("k=0 targets = %v, want nil", got)
	}
}

func TestCachePickAscendingForNegativePolicy(t *testing.T) {
	c := NewCache(3)
	c.ObserveThreshold(0, 5)
	c.ObserveThreshold(1, 50)
	c.ObserveThreshold(2, 0.5)
	targets := c.PickFeedbackTargets(2, true)
	if targets[0] != 2 || targets[1] != 0 {
		t.Errorf("ascending targets = %v, want [2 0]", targets)
	}
}

func TestCacheKnownThreshold(t *testing.T) {
	c := NewCache(2)
	if _, heard := c.KnownThreshold(0); heard {
		t.Error("unheard source reported as heard")
	}
	c.ObserveThreshold(0, 7)
	th, heard := c.KnownThreshold(0)
	if !heard || th != 7 {
		t.Errorf("KnownThreshold = (%v, %v), want (7, true)", th, heard)
	}
	if _, heard := c.KnownThreshold(99); heard {
		t.Error("out-of-range source reported as heard")
	}
	c.ObserveThreshold(99, 1) // must not panic
}

func TestThresholdConvergenceScenario(t *testing.T) {
	// Integration-style check of the control loop: a source sending one
	// refresh per feedback round should oscillate around equilibrium
	// rather than drifting monotonically.
	s := newTestSource(PositiveFeedback)
	s.SetThreshold(1)
	min, max := 1.0, 1.0
	for round := 0; round < 1000; round++ {
		now := float64(round)
		// ~9 refreshes per feedback: growth 1.1^9 ≈ 2.36 < ω = 10 so
		// feedback dominates slightly; threshold stays bounded.
		for i := 0; i < 9; i++ {
			s.OnRefreshSent(now)
		}
		s.OnFeedback(now)
		th := s.Threshold()
		if th < min {
			min = th
		}
		if th > max {
			max = th
		}
	}
	if s.Threshold() < minThreshold || s.Threshold() > 1 {
		t.Errorf("threshold drifted to %v; want bounded oscillation below 1", s.Threshold())
	}
}

// TestCachePickOrder pins the whole target order: descending by threshold
// (ascending for the negative-feedback ablation), ties broken by source index,
// sources that exhausted their warm-up greetings without a refresh excluded.
// Picking allocates nothing once the scratch buffer is sized.
func TestCachePickOrder(t *testing.T) {
	c := NewCache(7)
	for src, th := range map[int]float64{0: 2, 1: 9, 2: 2, 4: 0.5, 5: 9, 6: 2} {
		c.ObserveThreshold(src, th)
	}
	for i := 0; i < warmupGreetLimit; i++ {
		c.PickFeedbackTargets(1, false) // source 3, never heard, greets and gives up
	}
	for _, leg := range []struct {
		ascending bool
		want      []int
	}{
		{false, []int{1, 5, 0, 2, 6, 4}},
		{true, []int{4, 0, 2, 6, 1, 5}},
	} {
		if got := c.PickFeedbackTargets(10, leg.ascending); !slices.Equal(got, leg.want) {
			t.Errorf("ascending=%v: targets %v, want %v", leg.ascending, got, leg.want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { c.PickFeedbackTargets(3, false) }); allocs != 0 {
		t.Errorf("PickFeedbackTargets allocated %.1f times per call, want 0", allocs)
	}
}
