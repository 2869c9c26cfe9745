package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"

	"securearchive/internal/cluster"
	"securearchive/internal/core"
	"securearchive/internal/group"
	"securearchive/internal/obs"
	"securearchive/internal/store"
	"securearchive/internal/workload"
)

// cmdBench runs the closed-loop saturation driver against a cluster for
// one encoding: W workers issue a put/get/scrub mix, each firing its
// next op as soon as the previous returns, and the obs registry supplies
// per-op latency percentiles. -workers takes a comma-separated sweep
// (fresh cluster+vault per cell). With -offline / -transient / -corrupt
// the run measures degraded-mode throughput. -store disk runs against
// the WAL + segment backend (fresh directory per cell, fsync policy from
// -fsync) instead of in-memory maps.
func cmdBench(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	encName := fs.String("encoding", "shamir", "encoding scheme")
	storeKind := fs.String("store", "mem", "storage backend: mem or disk")
	storeDir := fs.String("store-dir", "", "root directory for -store disk cells (default: a temp dir, removed afterwards)")
	fsyncMode := fs.String("fsync", "", "disk fsync policy: commit (default), always, never")
	n := fs.Int("n", 8, "total shards / nodes")
	t := fs.Int("t", 4, "threshold (privacy or decode, per encoding)")
	k := fs.Int("k", 3, "pack factor (packed encoding only)")
	workersCSV := fs.String("workers", "1,4,16", "comma-separated closed-loop worker counts")
	ops := fs.Int("ops", 256, "total operations per worker-count cell")
	size := fs.Int("size", 32<<10, "bytes per object")
	preload := fs.Int("preload", 8, "objects stored before the measured window")
	putW := fs.Float64("put", 0.45, "put weight in the op mix")
	getW := fs.Float64("get", 0.45, "get weight in the op mix")
	scrubW := fs.Float64("scrub", 0.10, "scrub weight in the op mix")
	shared := fs.Bool("shared", false, "collide workers on a shared id set (contention-heavy variant)")
	batch := fs.Bool("batch", false, "route puts through a shared group-commit batcher (small-object path)")
	skew := fs.Float64("skew", 0, "zipfian read skew s (> 1) aiming gets at a hot set; 0 = uniform")
	cacheBytes := fs.Int64("cache-bytes", 0, "decoded-object read cache budget in bytes (0 = cache off)")
	offline := fs.Int("offline", 0, "nodes taken offline for the whole run")
	transient := fs.Float64("transient", 0, "per-op transient fault probability")
	corrupt := fs.Float64("corrupt", 0, "per-read shard corruption probability")
	seed := fs.Int64("seed", 1, "workload and fault seed")
	asJSON := fs.Bool("json", false, "emit results as JSON instead of a table")
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), "usage: archivectl bench [flags]\n\n"+
			"bench runs the integrity chain on group.Test() (256-bit, insecure), the group the\n"+
			"committed BENCH_*.json figures were measured on. `archivectl serve` and `stats` run\n"+
			"the production group; bench/ is the benchmark that measures it.\n\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)

	enc, err := buildEncoding(*encName, *n, *t, *k)
	if err != nil {
		fatal(err)
	}
	var workers []int
	for _, f := range strings.Split(*workersCSV, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w < 1 {
			fatal(fmt.Errorf("bench: bad -workers entry %q", f))
		}
		workers = append(workers, w)
	}
	cfg := workload.SaturationConfig{
		TotalOps:    *ops,
		ObjectBytes: *size,
		Preload:     *preload,
		Mix:         workload.OpMix{Put: *putW, Get: *getW, Scrub: *scrubW},
		Seed:        *seed,
		SharedIDs:   *shared,
		Batched:     *batch,
		ReadSkew:    *skew,
	}
	if *storeKind != store.BackendMem && *storeKind != store.BackendDisk {
		fatal(fmt.Errorf("bench: unknown -store backend %q", *storeKind))
	}
	root := *storeDir
	if *storeKind == store.BackendDisk && root == "" {
		tmp, err := os.MkdirTemp("", "archivectl-bench-")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(tmp)
		root = tmp
	}
	mk := func() (*core.Vault, *obs.Registry, error) {
		reg := obs.NewRegistry()
		var c *cluster.Cluster
		if *storeKind == store.BackendDisk {
			// Every sweep cell starts from an empty archive: reopening a
			// previous cell's directory would replay its WAL into this one.
			dir, err := os.MkdirTemp(root, "cell-")
			if err != nil {
				return nil, nil, err
			}
			var cerr error
			c, cerr = cluster.Open(*n, nil, store.Config{
				Backend: store.BackendDisk, Dir: dir, Fsync: *fsyncMode,
			})
			if cerr != nil {
				return nil, nil, cerr
			}
		} else {
			c = cluster.New(*n, nil)
		}
		c.UseRegistry(reg)
		for i := 0; i < *offline; i++ {
			c.SetOnline(i, false)
		}
		if *transient > 0 || *corrupt > 0 {
			c.SetFaultPlan(&cluster.FaultPlan{Seed: *seed, Default: cluster.NodeFaults{
				TransientProb: *transient,
				CorruptProb:   *corrupt,
			}})
		}
		vopts := []core.VaultOption{core.WithGroup(group.Test()), core.WithRegistry(reg)}
		if *cacheBytes > 0 {
			vopts = append(vopts, core.WithReadCache(*cacheBytes))
		}
		v, err := core.NewVault(c, enc, vopts...)
		return v, reg, err
	}
	runs, err := workload.SweepWorkers(workers, cfg, mk)
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		blob, err := json.MarshalIndent(struct {
			Encoding  string                       `json:"encoding"`
			Backend   string                       `json:"backend"`
			GoMaxProc int                          `json:"gomaxprocs"`
			Runs      []*workload.SaturationResult `json:"runs"`
		}{enc.Name(), *storeKind, runtime.GOMAXPROCS(0), runs}, "", "  ")
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(append(blob, '\n'))
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "W\tops\tops/s\tput MB/s\tget MB/s\tput p50/p99 (µs)\tget p50/p99 (µs)\tlock p99 (µs)\thit%%\terrs\n")
	for _, r := range runs {
		fmt.Fprintf(w, "%d\t%d\t%.0f\t%.1f\t%.1f\t%.0f/%.0f\t%.0f/%.0f\t%.0f\t%.0f\t%d\n",
			r.Workers, r.Ops, r.OpsPerSec, r.PutMBPerSec, r.GetMBPerSec,
			r.PutLatency.P50Ns/1e3, r.PutLatency.P99Ns/1e3,
			r.GetLatency.P50Ns/1e3, r.GetLatency.P99Ns/1e3,
			r.LockWaitP99Ns/1e3, 100*r.CacheHitRatio, r.Errors)
	}
	w.Flush()
	if len(workers) > 1 {
		fmt.Printf("scaling W=%d vs W=%d: %.2fx (GOMAXPROCS=%d)\n",
			workers[len(workers)-1], workers[0],
			workload.ScalingX(runs, workers[0], workers[len(workers)-1]),
			runtime.GOMAXPROCS(0))
	}
}
