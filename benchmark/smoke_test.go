package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"
)

// TestMain lets the test binary play the child process: runChild re-execs
// os.Executable(), which under `go test` is this binary.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the tests pin the program to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec() (*benchmarkSpec, error) {
	data, err := os.ReadFile(filepath.Join(rootDir(), "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

func names(defs []metricDef) map[string]string {
	out := map[string]string{}
	for _, d := range defs {
		out[d.name] = d.unit
	}
	return out
}

func keys[V any](m map[string]V) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sameKeys[A, B any](t *testing.T, what string, got map[string]A, want map[string]B) {
	t.Helper()
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: %q is emitted but not declared", what, k)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: %q is declared but not emitted", what, k)
		}
	}
}

// TestDeclaredNames pins the names and units in BENCHMARK.json to the ones the
// program emits, in both directions, and to the contract's alphabet.
func TestDeclaredNames(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	legal := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	declared := map[string]string{}
	for _, w := range spec.Workloads {
		declared[w.Name] = ""
	}
	program := map[string]string{}
	for _, w := range workloads {
		program[w.name] = ""
	}
	sameKeys(t, "workloads", program, declared)

	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
		b := bounds[m.Name]
		if m.Bound != b.all {
			t.Errorf("%s: bound %v in BENCHMARK.json, %v in the program", m.Name, m.Bound, b.all)
		}
		for wl, q := range b.quiet {
			if findWorkload(wl) == nil || q >= b.all {
				t.Errorf("%s: quiet bound %v on %q is not tighter than %v on a known workload", m.Name, q, wl, b.all)
			}
		}
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	for what, pair := range map[string][2]map[string]string{
		"end_to_end": {names(endToEnd), e2e},
		"per_layer":  {names(perLayer()), layer},
	} {
		sameKeys(t, what, pair[0], pair[1])
		for name, unit := range pair[0] {
			if !legal.MatchString(name) {
				t.Errorf("%s: name %q is outside [A-Za-z0-9_.-]", what, name)
			}
			if pair[1][name] != unit {
				t.Errorf("%s: %s has unit %q in the program and %q in BENCHMARK.json", what, name, unit, pair[1][name])
			}
		}
	}
}

// TestSmoke runs every workload with a 1 s window, untraced and traced, and
// checks that the runs are correct, that they emit exactly the declared
// metrics, and that the traced span chain reconciles.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads (about a minute)")
	}
	for _, wl := range workloads {
		o := options{workload: wl.name, seed: 1, seconds: 1}
		for trace, defs := range [][]metricDef{endToEnd, perLayer()} {
			r := runChild(o, trace, 2*time.Minute)
			if r.Crashed {
				t.Fatalf("%s trace=%d crashed:\n%v", wl.name, trace, r.Stderr)
			}
			if r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%d: attempted %d, failed %d %v %v", wl.name, trace, r.Attempted, r.Failed, r.Failures, r.DriverErrors)
			}
			sameKeys(t, wl.name, r.Metrics, names(defs))
			if trace == 0 {
				for _, k := range keys(r.Metrics) {
					if r.Metrics[k] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, k, r.Metrics[k])
					}
				}
				continue
			}
			if r.Info["trace.pairs"] == 0 {
				t.Errorf("%s: traced run closed no (update, leaf) pair", wl.name)
			}
			un, visible := r.Metrics["trace.unattributed_ms_mean"], r.Info["trace.visible_mean_ms"]
			if un > 0.05*visible || un < -0.05*visible {
				t.Errorf("%s: mean unattributed %.4f ms is over 5%% of mean visible %.4f ms", wl.name, un, visible)
			}
		}
	}
}
