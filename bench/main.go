// Command bench is the archive service's pinned end-to-end benchmark:
// it starts the real service in-process in its production configuration,
// drives it over loopback HTTP with a closed loop of two clients, checks
// every outcome, and prints the metrics BENCHMARK.json names. See
// README.md in this directory.
//
// With -workload it makes one run and prints, as the last line of its
// output, the run's result as one JSON object. Without -workload, or with
// -repeat or -record, it runs itself once per workload and repeat (each
// run in a process of its own, so peak memory is that run's) and prints
// a min/median/max table.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// spec is BENCHMARK.json.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// findRoot walks up from the working directory to the one that holds
// BENCHMARK.json — the checkout's root, whether the benchmark was
// started there or in bench/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

func loadSpec(root string) (*spec, error) {
	blob, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// checkNames requires a run to have emitted exactly the metrics the spec
// names, each with the spec's unit.
func checkNames(got map[string]metric, want []metricSpec) error {
	var problems []string
	for _, ms := range want {
		m, ok := got[ms.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+ms.Name)
		case m.Unit != ms.Unit:
			problems = append(problems, fmt.Sprintf("%s in %s, BENCHMARK.json says %s", ms.Name, m.Unit, ms.Unit))
		}
	}
	listed := map[string]bool{}
	for _, ms := range want {
		listed[ms.Name] = true
	}
	for name := range got {
		if !listed[name] {
			problems = append(problems, "unlisted "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return errors.New("metrics do not match BENCHMARK.json: " + strings.Join(problems, "; "))
	}
	return nil
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	repeat   int
	record   bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: ingest_small, recall_cold, recall_hot or bulk_stream (default: all)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the op sequence and the payloads")
	flag.IntVar(&o.seconds, "seconds", 0, "length of the measured window (default: run_seconds in BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1: the traced run, which prints the per-layer metrics and the layer budget; 0: the end-to-end run")
	flag.IntVar(&o.repeat, "repeat", 0, "run each workload this many times and fail if a metric's spread exceeds its bound")
	flag.BoolVar(&o.record, "record", false, "append the runs to bench/results/ in go test -bench format, for benchstat")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = sp.RunSeconds
	}
	if flag.NArg() > 0 || o.trace < 0 || o.trace > 1 {
		return fmt.Errorf("bad arguments %v (note: -trace takes 0 or 1)", flag.Args())
	}
	if o.workload == "" || o.repeat > 0 || o.record {
		return orchestrate(root, sp, o)
	}
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	cfg := runConfig{
		w: w, seed: o.seed, window: time.Duration(o.seconds) * time.Second,
		workDir: filepath.Join(root, ".bench_build", "work"),
	}
	var res result
	if o.trace == 1 {
		tr, err := runTraced(cfg, filepath.Join(root, "bench", "results"))
		if err != nil {
			return err
		}
		if err := checkNames(tr.Metrics, sp.PerLayer); err != nil {
			return err
		}
		fmt.Print(tr.budget)
		res = tr.result
	} else {
		e2e, err := runE2E(cfg)
		if err != nil {
			return err
		}
		if err := checkNames(e2e.Metrics, sp.EndToEnd); err != nil {
			return err
		}
		printE2E(cfg, e2e)
		res = e2e.result
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printE2E prints what the result line leaves out: the pinned
// configuration, the per-op-type view of the window and the checks made.
func printE2E(cfg runConfig, r *e2eRun) {
	fmt.Printf("%s: seed %d, window %v, closed loop W = %d over HTTP, %s backend (fsync %s), RS %d+%d, cache %d MiB, production group\n",
		cfg.w.name, cfg.seed, cfg.window, clients, cfg.w.backend, fsyncPolicy, rsData, rsTotal-rsData, cacheBytes>>20)
	fmt.Printf("  box speed %.3f of nominal: the result's setup_s, ops_s, p50_ms, p95_ms and cpu_ms_per_op are scaled by it; the lines here are raw\n", r.speed)
	fmt.Printf("  set-up ran %d time(s): %.3f s\n", len(r.setups), r.setups)
	for k, ks := range r.kinds {
		if ks.n == 0 {
			continue
		}
		fmt.Printf("  %-6s n=%-6d %9.1f ops/s  p50 %8.3f ms  p95 %8.3f ms  p99 %8.3f ms  max %8.3f ms\n",
			kindNames[k], ks.n, ks.opsS, ks.p50, ks.p95, ks.p99, ks.max)
	}
	fmt.Printf("  error_ratio 0 (%d ops attempted, every GET body compared byte for byte); sampled PUTs read back", r.Attempted)
	if cfg.w.backend == "disk" {
		fmt.Print("; store closed and reopened clean")
	}
	if cfg.w.cycle {
		fmt.Print("; stored bytes back at baseline")
	}
	fmt.Println()
}
