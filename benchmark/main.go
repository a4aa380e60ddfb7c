// Command benchmark is the repository's benchmark (BENCHMARK.json): it builds
// real Source → Node → Cache topologies over loopback TCP, drives them open
// loop with a seeded update stream, checks what the leaves install, and
// reports update→leaf-visible latency, CPU per update, divergence and a
// per-layer trace. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	stdruntime "runtime"
	"runtime/debug"
	"strings"
	"time"
)

// childEnv marks a re-exec of this binary that runs one workload in-process
// and prints its result as one JSON line. A variable rather than a flag so the
// smoke test's binary can play the child too.
const childEnv = "BESTSYNC_BENCH_CHILD"

const childTimeout = 170 * time.Second

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	repeat    int
	compare   bool
	out       string
	inprocess bool
	rest      []string
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run this one workload and print the BENCHMARK.json result line (default: the whole suite)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the update stream")
	fs.IntVar(&o.seconds, "seconds", 10, "measured window in seconds")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics (traced run + isolated drivers)")
	fs.IntVar(&o.repeat, "repeat", 1, "suite: untraced runs per workload, reported as median and quartiles")
	fs.BoolVar(&o.compare, "compare", false, "compare two suite results: -compare A.json B.json")
	fs.StringVar(&o.out, "out", "", "suite: result file (default benchmark/out/result.json)")
	fs.BoolVar(&o.inprocess, "inprocess", false, "with -workload: no child process (debugging; a crash kills the run)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.rest = fs.Args()
	if o.seconds < 1 || o.seconds > 60 {
		return o, fmt.Errorf("-seconds must be 1..60")
	}
	if o.repeat < 1 {
		return o, fmt.Errorf("-repeat must be at least 1")
	}
	if o.workload != "" && findWorkload(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	return o, nil
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	o, err := parseFlags(args)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		warnf("%v", err)
		return 2
	}
	switch {
	case os.Getenv(childEnv) != "":
		return childMain(o)
	case o.compare:
		return compareMain(o)
	case o.workload != "":
		return contractMain(o)
	default:
		return suiteMain(o)
	}
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}

// rootDir is the checkout root: the directory holding BENCHMARK.json, whether
// the binary was started there (the contract's way) or in benchmark/ (go run .).
func rootDir() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
	}
	return "."
}

func benchDir() string { return filepath.Join(rootDir(), "benchmark") }

// gitSHA is set by run.sh at link time; a plain `go run .` inside a git
// checkout falls back to the toolchain's own VCS stamp.
var gitSHA = "unknown"

// environment is the header every result carries.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	OSArch     string `json:"os_arch"`
	Transport  string `json:"transport"`
}

func currentEnvironment() environment {
	env := environment{
		NProc:      stdruntime.NumCPU(),
		GOMAXPROCS: stdruntime.GOMAXPROCS(0),
		GoVersion:  stdruntime.Version(),
		GitSHA:     gitSHA,
		OSArch:     stdruntime.GOOS + "/" + stdruntime.GOARCH,
		Transport:  "loopback TCP, binary codec",
	}
	if bi, ok := debug.ReadBuildInfo(); ok && gitSHA == "unknown" {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.GitSHA = s.Value
			}
		}
	}
	return env
}

// check is a prediction printed beside the numbers it is about.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// result is one run of one workload, as the child prints it.
type result struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      int                `json:"window_seconds"`
	Traced       bool               `json:"traced"`
	Flags        []string           `json:"flags"`
	Env          environment        `json:"env"`
	Disturbed    bool               `json:"disturbed"`
	Crashed      bool               `json:"crashed"`
	Attempted    int64              `json:"attempted"`
	Failed       int64              `json:"failed"`
	Failures     map[string]int64   `json:"failures,omitempty"`
	Metrics      map[string]float64 `json:"metrics"`
	Info         map[string]float64 `json:"info,omitempty"`
	Checks       []check            `json:"checks,omitempty"`
	DriverErrors []string           `json:"driver_errors,omitempty"`
	WallSeconds  float64            `json:"wall_seconds"`
	Stderr       []string           `json:"stderr_tail,omitempty"`
}

// runInProcess measures one workload in this process. An untraced run is one
// measurement; a traced run is an untraced reference (for the tracing
// overhead), the traced measurement and the isolated drivers.
func runInProcess(o options) (*result, error) {
	wl := findWorkload(o.workload)
	start := time.Now()
	res := &result{
		Workload: wl.name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace != 0,
		Flags: os.Args[1:], Env: currentEnvironment(),
		Failures: map[string]int64{}, Info: map[string]float64{},
	}
	h := newHarness(wl, o.seed, o.seconds)
	// A window shorter than the warm-up is a smoke run, not a measurement:
	// one set-up is enough for it.
	setups := wl.setups
	if o.seconds < warmupSeconds {
		setups = 1
	}
	absorb := func(m *measurement) {
		res.Attempted += m.attempted
		res.Failed += m.failed
		for k, n := range m.failures {
			res.Failures[k] += n
		}
		if h.late.quantile(0.99) > float64(lateLimitNs) {
			res.Disturbed = true
		}
	}
	if !res.Traced {
		m, err := h.measure(false, setups)
		if err != nil {
			return nil, err
		}
		absorb(m)
		res.Metrics = h.endToEndMetrics(m)
		res.Info["visible_samples"] = float64(m.vis.n)
		res.Info["applied_per_s"] = float64(m.end.leaves[0].Refreshes-m.begin.leaves[0].Refreshes) / m.seconds()
		res.Info["gen.late_p99_ms"] = h.late.quantile(0.99) / 1e6
		res.Info["gen.late_max_ms"] = float64(h.late.max) / 1e6
		res.Info["gen.backlog_hold_ms"] = float64(h.holds)
		res.Info["source.unconverged_share"] = m.unconv
		res.WallSeconds = time.Since(start).Seconds()
		return res, nil
	}

	ref, err := h.measure(false, 1)
	if err != nil {
		return nil, err
	}
	absorb(ref)
	h.genT0 = make([]int64, len(h.sched.obj))
	h.genT1 = make([]int64, len(h.sched.obj))
	m, err := h.measure(true, 1)
	if err != nil {
		return nil, err
	}
	absorb(m)
	res.Metrics = h.counters(m)
	for k, v := range m.spans.spanMetrics(&h.call) {
		res.Metrics[k] = v
	}
	res.Metrics["trace.overhead_share"] = m.cpuPerUpdateUs()/ref.cpuPerUpdateUs() - 1
	if m.wire.frames > 0 {
		res.Metrics["transport.refreshes_per_frame"] = float64(m.wire.refreshes) / float64(m.wire.frames)
	}
	if m.wire.sized > 0 {
		res.Metrics["transport.bytes_per_refresh"] = float64(m.wire.sizedBytes) / float64(m.wire.sized)
	}
	drv, drvErrs := runDrivers()
	for k, v := range drv {
		res.Metrics[k] = v
	}
	res.DriverErrors = drvErrs
	res.Attempted += int64(len(driverNames))
	if n := int64(len(drvErrs)); n > 0 {
		res.Failed += n
		res.Failures["driver"] = n
	}
	res.Info["trace.pairs"] = float64(m.spans.pairs)
	res.Info["trace.visible_p50_ms"] = m.spans.visible.quantile(0.5) / 1e6
	res.Info["trace.visible_mean_ms"] = m.spans.visible.mean() / 1e6
	res.Info["trace.gen_late_mean_ms"] = m.spans.late.mean() / 1e6
	res.Info["untraced.cpu_us_per_update"] = ref.cpuPerUpdateUs()
	res.Info["traced.cpu_us_per_update"] = m.cpuPerUpdateUs()
	res.Checks = predictions(wl, res)
	res.WallSeconds = time.Since(start).Seconds()
	return res, nil
}

// predictions are the separations ISSUE 12 expects on the seed: which layer
// dominates which workload. They are printed, not counted as failures — a
// later change may move them on purpose.
func predictions(wl *workload, r *result) []check {
	m := r.Metrics
	visible := r.Info["trace.visible_mean_ms"]
	var out []check
	add := func(name string, ok bool, format string, args ...any) {
		out = append(out, check{name, ok, fmt.Sprintf(format, args...)})
	}
	un := m["trace.unattributed_ms_mean"]
	add("trace reconciles", visible > 0 && un <= 0.05*visible && un >= -0.05*visible,
		"mean unattributed %.4f ms of mean visible %.4f ms", un, visible)
	switch wl.name {
	case "paper_star":
		p50 := r.Info["trace.visible_p50_ms"]
		add("scheduler-bound", m["source.sched_wait_ms_p50"] >= 0.9*p50,
			"sched_wait p50 %.1f ms vs visible p50 %.1f ms (want ≥ 90%%)", m["source.sched_wait_ms_p50"], p50)
	case "tree_firehose", "fanout_classic":
		pipe := m["transport.hop1_ms_mean"] + m["node.forward_ms_mean"] + m["transport.hop2_ms_mean"] + m["cache.apply_ms_mean"]
		add("pipeline-bound", pipe >= 0.3*visible,
			"transport+forward+apply %.2f ms of visible %.2f ms (want ≥ 30%%)", pipe, visible)
	}
	if wl.name == "tree_firehose" {
		add("splice path", m["node.splice_share"] == 1 && m["group.detaches"] == 0,
			"splice_share %.4f, group.detaches %.0f (want 1 and 0)", m["node.splice_share"], m["group.detaches"])
	}
	if wl.polled {
		add("poll path", m["cache.polls_per_s"] > 0, "polls/s %.1f (want > 0)", m["cache.polls_per_s"])
	} else {
		add("push path", m["cache.polls_per_s"] == 0, "polls/s %.1f (want 0)", m["cache.polls_per_s"])
	}
	return out
}

// childMain is the re-exec'd process: one workload, one JSON line.
func childMain(o options) int {
	res, err := runInProcess(o)
	if err != nil {
		warnf("%v", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		warnf("%v", err)
		return 1
	}
	return 0
}

// runChild runs one workload in a child process with a hard timeout, so a
// crash (see README, "known seed hazards") is one failed run and not a dead
// benchmark. On failure the result is marked crashed and carries the last 40
// lines of the child's standard error.
func runChild(o options, trace int, timeout time.Duration) *result {
	crashed := func(lines ...string) *result {
		return &result{
			Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: trace != 0,
			Crashed: true, Attempted: 1, Failed: 1, Failures: map[string]int64{"crashed": 1},
			Stderr: lines,
		}
	}
	if o.inprocess {
		o.trace = trace
		res, err := runInProcess(o)
		if err != nil {
			return crashed(err.Error())
		}
		return res
	}
	exe, err := os.Executable()
	if err != nil {
		return crashed(err.Error())
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(trace))
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.WaitDelay = 5 * time.Second
	runErr := cmd.Run()
	res := &result{}
	if runErr == nil {
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		runErr = json.Unmarshal(lines[len(lines)-1], res)
	}
	if runErr != nil {
		lines := tail(stderr.String(), 40)
		if ctx.Err() != nil {
			lines = append(lines, fmt.Sprintf("killed after %s", timeout))
		}
		return crashed(append(lines, runErr.Error())...)
	}
	return res
}

func tail(s string, n int) []string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return lines[max(0, len(lines)-n):]
}

// runSteady runs one child and, if the generator reports that the window was
// disturbed (p99 lateness over the limit: a noisy neighbour, not a
// regression) and the time budget allows, runs it once more and keeps the
// second result. A crashed child is never run again: the crash is the result.
func runSteady(o options, trace int, budget time.Duration) *result {
	start := time.Now()
	res := runChild(o, trace, budget)
	if !res.Disturbed || res.Crashed {
		return res
	}
	left := budget - time.Since(start)
	if left < 2*time.Since(start) {
		return res
	}
	warnf("%s: generator p99 lateness over %d ms, window disturbed; running once more", o.workload, lateLimitNs/int64(time.Millisecond))
	return runChild(o, trace, left)
}

// contractMain is `--workload W --seed N --seconds S --trace T`: one run, and
// as the last line of standard output the result object BENCHMARK.json's
// contract asks for.
func contractMain(o options) int {
	res := runSteady(o, o.trace, childTimeout)
	if res.Crashed {
		for _, l := range res.Stderr {
			fmt.Fprintln(os.Stderr, l)
		}
		warnf("%s crashed; no result", o.workload)
		return 1
	}
	defs := endToEnd
	if o.trace != 0 {
		defs = perLayer()
	}
	printRun(os.Stderr, res, defs)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.name] = value{res.Metrics[d.name], d.unit}
	}
	if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
		warnf("%v", err)
		return 1
	}
	return 0
}

// printChecks prints a traced run's predictions and any driver that failed.
func printChecks(w io.Writer, r *result) {
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "NOT MET"
		}
		fmt.Fprintf(w, "prediction %-18s %-8s %s\n", c.Name, verdict, c.Detail)
	}
	for _, e := range r.DriverErrors {
		fmt.Fprintf(w, "driver failed: %s\n", e)
	}
}

func printRun(w io.Writer, r *result, defs []metricDef) {
	fmt.Fprintf(w, "# %s seed=%d window=%ds traced=%v nproc=%d GOMAXPROCS=%d %s git=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.GitSHA)
	for _, d := range defs {
		fmt.Fprintf(w, "%-44s %14.4f %s\n", d.name, r.Metrics[d.name], d.unit)
	}
	printChecks(w, r)
	fmt.Fprintf(w, "info: %v\n", r.Info)
	fmt.Fprintf(w, "operations: attempted=%d failed=%d %v disturbed=%v wall=%.1fs\n",
		r.Attempted, r.Failed, r.Failures, r.Disturbed, r.WallSeconds)
}
