// Command syncbench regenerates the paper's tables and figures.
//
// Usage:
//
//	syncbench [flags] [experiment ids...]
//
// With no ids, every experiment runs in DESIGN.md order. Available ids:
// e1 e2 (Section 4.3 validations), p1 (Section 6.1 parameter sweep),
// f4 f5 f6 (Figures 4–6), a1 a2 a3 a4 (ablations), e7 e8 e9 (Sections 7–9
// extensions), e10 e11 e12 e13 (Section 10.1 future-work extensions).
//
// Flags:
//
//	-full      run the paper-scale grids (minutes–hours) instead of the
//	           reduced quick grids (seconds each)
//	-seed N    base random seed (default 1); in -policy mode it draws
//	           the Zipf picks and the poll phases
//	-csv DIR   also write each table as CSV files under DIR
//	-list      list experiment ids and exit
//
//	-cpuprofile FILE  write a pprof CPU profile of the selected mode
//	-memprofile FILE  write a pprof heap profile at exit
//
// The profiling flags work in every mode (experiments and benchmarks alike);
// inspect the output with `go tool pprof`.
//
// With -topology the experiments are skipped and syncbench instead compares
// the live runtime's (internal/runtime) peer-face topology shapes over the
// same N cache nodes at the same total send budget: the direct tree (the
// origin spends the whole budget on per-node sessions) versus a ring and a
// full mesh where the origin holds half the budget toward one node and the
// nodes' peer faces share the other half, serving each other laterally. The
// -nodes, -objects, -rate, -bandwidth and -duration flags tune that mode.
// Results are also written to BENCH_topology.json.
//
// With -policy syncbench runs the live analogue of Figure 6 (§6.3): one
// source and one cache synchronize the same workload under each sync
// policy — source-cooperative push, ideal cache-based polling, CGM1 and
// CGM2 — at equal message budget over both transports, reporting installed
// refreshes, total messages and final mean divergence per policy. -zipf adds
// skewed-workload sweep points (comma-separated Zipf exponents). The
// -objects, -rate, -bandwidth, -duration, -resolve-every, -zipf and -seed
// flags tune it. Results are also written to BENCH_policy.json.
//
// Pipeline performance (throughput, fan-out, relay forwarding cost) is the
// repo benchmark's job: bash benchmark/run.sh.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	stdruntime "runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"bestsync/internal/experiments"
)

// startProfiles starts the optional pprof outputs (-cpuprofile/-memprofile).
// The returned stop function ends the CPU profile and snapshots the heap; it
// must run after the selected mode finishes.
func startProfiles(cpu, mem string) (func(), error) {
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuF = f
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "syncbench: -memprofile: %v\n", err)
				return
			}
			stdruntime.GC() // up-to-date allocation stats in the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "syncbench: -memprofile: %v\n", err)
			}
			f.Close()
		}
	}, nil
}

// parseZipf parses the -zipf flag: comma-separated Zipf exponents, each
// strictly greater than 1 (rand.NewZipf's domain). Empty means no skewed
// sweep points.
func parseZipf(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v <= 1 {
			return nil, fmt.Errorf("%q is not a Zipf exponent > 1", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	full := flag.Bool("full", false, "run the paper-scale grids")
	seed := flag.Int64("seed", 1, "base random seed")
	csvDir := flag.String("csv", "", "directory to write CSV tables into")
	list := flag.Bool("list", false, "list experiment ids and exit")
	objects := flag.Int("objects", 128, "policy/topology mode: objects in the workload")
	duration := flag.Duration("duration", 3*time.Second, "policy/topology mode: measurement window per config")
	rate := flag.Float64("rate", 500, "policy/topology mode: source update rate (updates/second)")
	bandwidth := flag.Float64("bandwidth", 200, "policy/topology mode: total send budget (messages/second)")
	topology := flag.Bool("topology", false, "benchmark the peer-face topology shapes (direct tree vs ring vs mesh at equal total budget) instead of experiments")
	topoNodes := flag.Int("nodes", 6, "topology mode: cache node count per shape")
	policy := flag.Bool("policy", false, "benchmark the sync policies (push vs ideal/CGM1/CGM2 cache-driven polling) at equal message budget instead of experiments")
	resolveEvery := flag.Duration("resolve-every", 500*time.Millisecond, "policy mode: poll re-estimation/re-allocation epoch")
	zipfFlag := flag.String("zipf", "", "policy mode: comma-separated Zipf exponents (each > 1) adding skewed-workload sweep points (empty = uniform workload only)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the selected mode to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "syncbench: -cpuprofile: %v\n", err)
		os.Exit(2)
	}
	defer stopProfiles()

	if *policy {
		zipf, err := parseZipf(*zipfFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "syncbench: -zipf: %v\n", err)
			os.Exit(2)
		}
		runPolicyMode(*objects, *rate, *bandwidth, *duration, *resolveEvery, zipf, *seed)
		return
	}
	if *topology {
		runTopologyMode(*topoNodes, *objects, *rate, *bandwidth, *duration)
		return
	}
	reg := experiments.Registry()
	if *list {
		for _, id := range experiments.Order() {
			fmt.Println(id)
		}
		return
	}
	ids := flag.Args()
	if len(ids) == 0 {
		ids = experiments.Order()
	}
	scale := experiments.Quick
	if *full {
		scale = experiments.Full
	}
	for _, id := range ids {
		runner, ok := reg[strings.ToLower(id)]
		if !ok {
			fmt.Fprintf(os.Stderr, "syncbench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		out := runner(scale, *seed)
		fmt.Printf("# %s (%s scale, %.1fs)\n\n", id, scale, time.Since(start).Seconds())
		if _, err := out.WriteTo(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "syncbench: %v\n", err)
			os.Exit(1)
		}
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, id, &out); err != nil {
				fmt.Fprintf(os.Stderr, "syncbench: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

func writeCSVs(dir, id string, out *experiments.Output) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := range out.Tables {
		path := filepath.Join(dir, fmt.Sprintf("%s_table%d.csv", id, i))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := out.Tables[i].CSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
