package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestPolicyBenchSchema is the CI smoke for -policy: a short sweep must run
// every policy over both transports and emit a BENCH_policy.json that
// parses with exactly the documented schema (docs/operations.md) — unknown
// fields in the file mean the docs lag the code, a decode error means the
// reverse.
func TestPolicyBenchSchema(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	runPolicyMode(24, 400, 120, 900*time.Millisecond, 300*time.Millisecond, []float64{1.3}, 1)

	data, err := os.ReadFile(filepath.Join(dir, "BENCH_policy.json"))
	if err != nil {
		t.Fatalf("BENCH_policy.json not written: %v", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var results []policyResult
	if err := dec.Decode(&results); err != nil {
		t.Fatalf("BENCH_policy.json does not match the documented schema: %v", err)
	}
	if len(results) != 16 {
		t.Fatalf("got %d scenarios, want 16 (4 policies × 2 transports × 2 workloads)", len(results))
	}
	want := map[string]float64{} // scenario → msg cost
	for _, suffix := range []string{"", "-z1.3"} {
		for _, transport := range []string{"local", "tcp"} {
			want["push-"+transport+suffix] = 1
			want["ideal-"+transport+suffix] = 1
			want["cgm1-"+transport+suffix] = 2
			want["cgm2-"+transport+suffix] = 2
		}
	}
	for _, r := range results {
		cost, ok := want[r.Scenario]
		if !ok {
			t.Errorf("unexpected scenario %q", r.Scenario)
			continue
		}
		delete(want, r.Scenario)
		if r.MsgCost != cost {
			t.Errorf("%s: msg cost = %v, want %v", r.Scenario, r.MsgCost, cost)
		}
		if r.Objects != 24 || r.BandwidthMsgsS != 120 {
			t.Errorf("%s: config = %d objects / %.0f msgs/s", r.Scenario, r.Objects, r.BandwidthMsgsS)
		}
		if r.DurationS <= 0 || r.Updates == 0 {
			t.Errorf("%s: empty measurement (duration %v, updates %d)", r.Scenario, r.DurationS, r.Updates)
		}
		if r.Refreshes == 0 || r.Messages == 0 {
			t.Errorf("%s: no traffic measured (refreshes %d, messages %d)", r.Scenario, r.Refreshes, r.Messages)
		}
		zipf := strings.HasSuffix(r.Scenario, "-z1.3")
		if zipf != (r.ZipfS == 1.3) {
			t.Errorf("%s: zipf_s = %v", r.Scenario, r.ZipfS)
		}
		switch r.Policy {
		case "push":
			if r.Polls != 0 || r.Resolves != 0 {
				t.Errorf("%s: push scenario recorded poll counters (%d/%d)", r.Scenario, r.Polls, r.Resolves)
			}
		default:
			if r.Polls == 0 {
				t.Errorf("%s: poll scenario sent no polls", r.Scenario)
			}
			if r.Resolves == 0 {
				t.Errorf("%s: poll scenario never re-solved", r.Scenario)
			}
		}
	}
	for missing := range want {
		t.Errorf("scenario %q missing from BENCH_policy.json", missing)
	}
}

// TestPolicyPickSeed: -seed reaches the Zipf picks of -policy mode. The
// default seed 1 draws the stream the mode always drew, and seed 2 another.
func TestPolicyPickSeed(t *testing.T) {
	draw := func(seed int64) []int {
		pick := policyPick(128, 1.3, seed)
		out := make([]int, 10)
		for i := range out {
			out[i] = pick(i)
		}
		return out
	}
	one := draw(1)
	if want := []int{1, 0, 1, 3, 3, 0, 57, 24, 41, 8}; !slices.Equal(one, want) {
		t.Errorf("seed 1 picks %v, want the stream of earlier builds %v", one, want)
	}
	if two := draw(2); slices.Equal(one, two) {
		t.Errorf("seeds 1 and 2 draw the same picks %v", one)
	}
	if rr := policyPick(128, 0, 2); rr(130) != 2 {
		t.Errorf("the uniform workload is not the round-robin walk: step 130 picks %d", rr(130))
	}
}
