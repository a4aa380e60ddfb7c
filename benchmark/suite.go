package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spread is a metric over a workload's repeated runs.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
	Runs   int     `json:"runs"`
}

// workloadReport is one workload in the suite's result file.
type workloadReport struct {
	Name      string            `json:"name"`
	Why       string            `json:"why"`
	EndToEnd  map[string]spread `json:"end_to_end"`
	PerLayer  map[string]spread `json:"per_layer"`
	Checks    []check           `json:"predictions"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Crashed   int               `json:"crashed"`
	Disturbed int               `json:"disturbed"`
	Runs      []*result         `json:"runs"`
}

// suiteReport is the file `-compare` reads. Claim is always null: the
// benchmark measures, it claims no gain.
type suiteReport struct {
	Env         environment      `json:"env"`
	Seed        int64            `json:"seed"`
	Seconds     int              `json:"window_seconds"`
	Repeat      int              `json:"repeat"`
	Flags       []string         `json:"flags"`
	Workloads   []workloadReport `json:"workloads"`
	WallSeconds float64          `json:"wall_seconds"`
	Claim       *string          `json:"claim"`
}

func summarize(runs []*result, defs []metricDef) map[string]spread {
	out := map[string]spread{}
	for _, d := range defs {
		var xs []float64
		for _, r := range runs {
			if !r.Crashed {
				xs = append(xs, r.Metrics[d.name])
			}
		}
		q1, med, q3 := quartiles(xs)
		out[d.name] = spread{med, q1, q3, d.unit, len(xs)}
	}
	return out
}

// suiteMain runs every workload untraced -repeat times, then traced once
// (which also runs the isolated drivers), each in a child process, prints the
// numbers and writes the result file. It exits 1 when an operation failed or
// a child crashed.
func suiteMain(o options) int {
	start := time.Now()
	rep := suiteReport{
		Env: currentEnvironment(), Seed: o.seed, Seconds: o.seconds, Repeat: o.repeat, Flags: os.Args[1:],
	}
	failed := false
	for _, wl := range workloads {
		o.workload = wl.name
		wr := workloadReport{Name: wl.name, Why: wl.why}
		var untraced []*result
		for i := 0; i < o.repeat; i++ {
			untraced = append(untraced, runSteady(o, 0, childTimeout))
		}
		traced := runSteady(o, 1, childTimeout)
		wr.Runs = append(append(wr.Runs, untraced...), traced)
		wr.EndToEnd = summarize(untraced, endToEnd)
		wr.PerLayer = summarize([]*result{traced}, perLayer())
		wr.Checks = traced.Checks
		for _, r := range wr.Runs {
			if r.Crashed {
				// Every operation of a crashed run failed; its count is the
				// workload's usual one, taken from a run that finished.
				r.Attempted = max(r.Attempted, usualAttempts(wr.Runs, r.Traced))
				r.Failed = r.Attempted
				wr.Crashed++
				for _, l := range r.Stderr {
					fmt.Fprintln(os.Stderr, "  | "+l)
				}
			}
			if r.Disturbed {
				wr.Disturbed++
			}
			wr.Attempted += r.Attempted
			wr.Failed += r.Failed
		}
		failed = failed || wr.Failed > 0 || wr.Crashed > 0
		rep.Workloads = append(rep.Workloads, wr)
		printWorkload(wr, traced)
	}
	rep.WallSeconds = time.Since(start).Seconds()
	path := o.out
	if path == "" {
		path = filepath.Join(benchDir(), "out", "result.json")
	}
	if err := writeJSON(path, rep); err != nil {
		warnf("%v", err)
		return 1
	}
	fmt.Printf("\nwrote %s (wall %.0f s); claim: null\n", path, rep.WallSeconds)
	if failed {
		warnf("failed operations or crashed runs, see above")
		return 1
	}
	return 0
}

func usualAttempts(runs []*result, traced bool) int64 {
	for _, r := range runs {
		if !r.Crashed && r.Traced == traced {
			return r.Attempted
		}
	}
	return 1
}

func printWorkload(wr workloadReport, traced *result) {
	fmt.Printf("\n## %s — %s\n", wr.Name, wr.Why)
	fmt.Printf("%-44s %14s %14s %14s  %s\n", "end to end (untraced)", "median", "q1", "q3", "unit")
	for _, d := range endToEnd {
		s := wr.EndToEnd[d.name]
		fmt.Printf("%-44s %14.4f %14.4f %14.4f  %s\n", d.name, s.Median, s.Q1, s.Q3, s.Unit)
	}
	if !traced.Crashed {
		fmt.Printf("%-44s %14s\n", "per layer (traced run, isolated drivers)", "value")
		for _, d := range perLayer() {
			fmt.Printf("%-44s %14.4f  %s\n", d.name, traced.Metrics[d.name], d.unit)
		}
	}
	printChecks(os.Stdout, traced)
	fmt.Printf("operations: attempted=%d failed=%d crashed_runs=%d disturbed_runs=%d\n",
		wr.Attempted, wr.Failed, wr.Crashed, wr.Disturbed)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compareMain prints, per workload and end-to-end metric, both medians, the
// ratio with its base, and a verdict against the bound of that metric on that
// workload (boundFor): better | same | worse, or unresolved when either side's
// quartiles are wider apart than the bound. It exits 1 on any worse row or a
// larger failed share.
func compareMain(o options) int {
	if len(o.rest) != 2 {
		warnf("usage: -compare A.json B.json")
		return 2
	}
	var reps [2]suiteReport
	for i, path := range o.rest {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &reps[i])
		}
		if err != nil {
			warnf("%s: %v", path, err)
			return 2
		}
	}
	a, b := reps[0], reps[1]
	if a.Seconds != b.Seconds {
		// Several metrics depend on the window's length (poll_zipf's divergence
		// grows with it: objects too hot to poll drift for as long as it lasts).
		warnf("windows differ (%d s and %d s): the reports are not comparable", a.Seconds, b.Seconds)
		return 2
	}
	fmt.Printf("A = %s (%s, seed %d, %d s, repeat %d)\nB = %s (%s, seed %d, %d s, repeat %d)\n",
		o.rest[0], a.Env.GitSHA, a.Seed, a.Seconds, a.Repeat, o.rest[1], b.Env.GitSHA, b.Seed, b.Seconds, b.Repeat)
	fmt.Printf("%-15s %-22s %12s %12s %16s %7s  %s\n", "workload", "metric", "A median", "B median", "B/A (base A)", "bound", "verdict")
	worse := false
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Printf("%-15s missing in B\n", wa.Name)
			worse = true
			continue
		}
		for _, m := range endToEnd {
			sa, sb := wa.EndToEnd[m.name], wb.EndToEnd[m.name]
			bound := boundFor(m.name, wa.Name)
			verdict := "same"
			ratio := sb.Median / sa.Median // every end-to-end metric is lower-is-better
			switch {
			case sa.Runs == 0 || sb.Runs == 0 || sa.Median == 0:
				verdict = "unresolved"
			case sa.Q3-sa.Q1 > bound*sa.Median || sb.Q3-sb.Q1 > bound*sb.Median:
				verdict = "unresolved"
			case ratio > 1+bound:
				verdict, worse = "worse", true
			case ratio < 1-bound:
				verdict = "better"
			}
			fmt.Printf("%-15s %-22s %12.4f %12.4f %16.4f %7.2f  %s\n",
				wa.Name, m.name, sa.Median, sb.Median, ratio, bound, verdict)
		}
		fa, fb := share(wa.Failed, wa.Attempted), share(wb.Failed, wb.Attempted)
		if fb > fa {
			fmt.Printf("%-15s failed share %.6f -> %.6f: worse\n", wa.Name, fa, fb)
			worse = true
		}
	}
	if worse {
		return 1
	}
	return 0
}

func share(failed, attempted int64) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
