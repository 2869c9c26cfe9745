package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// orchestrate runs this program once per workload and repeat, each run a
// process of its own exactly as the driver starts it, then prints the
// spread of every metric against its bound and, with -record, appends
// the runs to the comparable history.
func orchestrate(root string, sp *spec, o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	repeat := max(o.repeat, 1)
	specs := sp.EndToEnd
	if o.trace == 1 {
		specs = sp.PerLayer
	}

	runs := map[string][]result{}
	for _, name := range names {
		for r := 0; r < repeat; r++ {
			fmt.Printf("--- %s, run %d of %d\n", name, r+1, repeat)
			cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			os.Stdout.Write(out)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, r+1, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s run %d: result line: %w", name, r+1, err)
			}
			runs[name] = append(runs[name], res)
		}
	}

	var over []string
	fmt.Printf("\n%-14s %-34s %12s %12s %12s %8s %8s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	for _, name := range names {
		for _, ms := range specs {
			vals := make([]float64, len(runs[name]))
			for i, res := range runs[name] {
				vals[i] = res.Metrics[ms.Name].Value
			}
			lo, mid, hi := slices.Min(vals), median(vals), slices.Max(vals)
			spread := ratio(hi-lo, mid)
			bound := "-"
			if o.trace == 0 {
				bound = fmt.Sprintf("%.3f", ms.Bound)
				if repeat > 1 && spread > ms.Bound {
					over = append(over, fmt.Sprintf("%s/%s spread %.3f > bound %.3f", name, ms.Name, spread, ms.Bound))
				}
			}
			fmt.Printf("%-14s %-34s %12.4f %12.4f %12.4f %8.3f %8s  %s\n", name, ms.Name, lo, mid, hi, spread, bound, ms.Unit)
		}
	}
	if o.record {
		path, err := record(root, o, names, specs, runs)
		if err != nil {
			return fmt.Errorf("record: %w", err)
		}
		fmt.Println("recorded", path)
	}
	if len(over) > 0 {
		return fmt.Errorf("not repeatable within the bounds of BENCHMARK.json: %s", strings.Join(over, "; "))
	}
	return nil
}

// record writes the runs as go test -bench output — one line per run and
// metric, so that repeated runs are benchstat's samples and
// `benchstat old.txt new.txt` is the regression view — under
// bench/results/bench_canonical-<UTC timestamp>_<git sha>[-dirty].txt.
func record(root string, o options, names []string, specs []metricSpec, runs map[string][]result) (string, error) {
	sha, dirty := "nogit", ""
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
			dirty = "-dirty"
		}
	}
	dir := filepath.Join(root, "bench", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("bench_canonical-%s_%s%s.txt", time.Now().UTC().Format("20060102T150405Z"), sha, dirty))

	var b strings.Builder
	family := "BenchmarkE2E"
	if o.trace == 1 {
		family = "BenchmarkLayer"
	}
	fmt.Fprintf(&b, "goos: %s\ngoarch: %s\npkg: securearchive/bench\n", runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(&b, "nproc: %d\ngomaxprocs: %d\ngo: %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(&b, "store-fs: %s\nfsync: %s\nseed: %d\nseconds: %d\nrepeat: %d\n", fsName(root), fsyncPolicy, o.seed, o.seconds, max(o.repeat, 1))
	fmt.Fprintf(&b, "note: the iteration column is the number of ops the run attempted\n")
	for _, name := range names {
		for _, res := range runs[name] {
			for _, ms := range specs {
				fmt.Fprintf(&b, "%s/%s/%s \t%8d\t%14.4f %s\n", family, name, ms.Name, res.Attempted, res.Metrics[ms.Name].Value, ms.Unit)
			}
		}
	}
	return path, os.WriteFile(path, []byte(b.String()), 0o644)
}

// fsName names the filesystem the store directories are made on.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
