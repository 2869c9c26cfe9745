package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	"securearchive/internal/api"
	"securearchive/internal/cluster"
	"securearchive/internal/core"
	"securearchive/internal/group"
	"securearchive/internal/obs"
	"securearchive/internal/store"
	"securearchive/internal/store/diskstore"
	"securearchive/internal/workload"
)

// saturateWorkers are the closed-loop concurrency levels the sweep
// measures. The acceptance gate compares 16 against 1.
var saturateWorkers = []int{1, 4, 16, 64}

// saturateReport is the JSON schema written by -saturate: one throughput/
// latency curve per encoding (and, with -saturate-faults, a second
// degraded-mode curve per encoding), measured by the closed-loop
// internal/workload driver.
type saturateReport struct {
	Schema    string `json:"schema"`
	GoMaxProc int    `json:"gomaxprocs"`
	// Backend is the storage backend the main and small-object sweeps ran
	// against: "mem" (map-backed) or "disk" (WAL + segments, fsync on
	// commit). The disk section below always compares both.
	Backend string `json:"backend"`
	// Workload parameters (shared by every cell).
	ObjectBytes int            `json:"object_bytes"`
	TotalOps    int            `json:"total_ops"`
	Preload     int            `json:"preload"`
	Mix         workload.OpMix `json:"mix"`
	Seed        int64          `json:"seed"`
	Encodings   []saturateRuns `json:"encodings"`
	// SmallObject is the batched-vs-unbatched 4 KiB sweep written by
	// -saturate-small.
	SmallObject *smallObjectSection `json:"small_object,omitempty"`
	// Disk is the fsync-backed mem-vs-disk sweep written by
	// -saturate-disk.
	Disk *diskSection `json:"disk,omitempty"`
	// Network is the loopback HTTP service sweep written by
	// -saturate-net.
	Network *networkSection `json:"network,omitempty"`
	// ReadCache is the skewed-read cached-vs-uncached sweep written by
	// -saturate-read.
	ReadCache *readCacheSection `json:"read_cache,omitempty"`
}

// readCacheSection is the -saturate-read result: a read-only zipfian
// workload over a preloaded set, swept at several skews with the
// decoded-object read cache off and on (cache sized to half the working
// set, so residency is earned by the admission policy, not given). The
// acceptance gate reads CachedX16 at skew 1.1: cached read ops/s over
// uncached at W=16 (≥ 2 expected — a hit skips the stripe fetch, the
// decode and the chain verify entirely).
type readCacheSection struct {
	Encoding    string          `json:"encoding"`
	ObjectBytes int             `json:"object_bytes"`
	TotalOps    int             `json:"total_ops"`
	Preload     int             `json:"preload"`
	CacheBytes  int64           `json:"cache_bytes"`
	Skews       []readCacheSkew `json:"skews"`
}

// readCacheSkew is one skew level's cached-vs-uncached worker sweep.
type readCacheSkew struct {
	Skew     float64                      `json:"skew"`
	Uncached []*workload.SaturationResult `json:"uncached"`
	Cached   []*workload.SaturationResult `json:"cached"`
	// CachedX16 is cached read ops/s over uncached read ops/s at W=16;
	// HitRatio16 is the cached run's hit ratio there.
	CachedX16  float64 `json:"cached_x_at_w16"`
	HitRatio16 float64 `json:"hit_ratio_at_w16"`
}

// networkSection is the -saturate-net result: the closed-loop driver
// pointed at a live archive service (internal/api) over loopback HTTP
// instead of at the vault directly, one fresh server per cell. The
// runs price the full service stack — routing, tenant admission,
// streaming body transfer, JSON envelopes — against the in-process
// curves in Encodings, and StreamPeakBytes in each run is the server's
// high-water streaming buffer: it must stay O(workers × chunk) no
// matter how many bytes crossed the wire.
type networkSection struct {
	Encoding    string                    `json:"encoding"`
	ObjectBytes int                       `json:"object_bytes"`
	TotalOps    int                       `json:"total_ops"`
	Transport   string                    `json:"transport"`
	ChunkBytes  int                       `json:"chunk_bytes"`
	Mix         workload.OpMix            `json:"mix"`
	Runs        []*workload.NetworkResult `json:"runs"`
	// ScalingX16v1 is ops/s at W=16 over W=1 through the service.
	ScalingX16v1 float64 `json:"scaling_x_16_vs_1"`
}

// diskSection is the -saturate-disk result: one representative encoding
// swept through the same closed-loop driver twice — once on the
// in-memory backend and once on the disk backend with its default
// fsync-on-commit policy, each disk cell in a fresh directory. DiskX16
// is disk ops/s over mem ops/s at W=16: the honest price of making every
// stripe commit a durable WAL record, measured rather than hand-waved.
type diskSection struct {
	Encoding    string                       `json:"encoding"`
	ObjectBytes int                          `json:"object_bytes"`
	TotalOps    int                          `json:"total_ops"`
	Fsync       string                       `json:"fsync"`
	Mem         []*workload.SaturationResult `json:"mem"`
	Disk        []*workload.SaturationResult `json:"disk"`
	DiskX16     float64                      `json:"disk_x_at_w16"`
}

// smallObjectSection is the -saturate-small result: the same closed-loop
// driver over 4 KiB objects with a put-heavy mix, once with every put
// going through Vault.Put and once through a shared core.Batcher. The
// acceptance gate reads BatchedX16: batched ops/s over unbatched ops/s
// at W=16 (≥ 2 expected — group commit amortises the per-put signature,
// commitment chain, and staged dispersal across the whole batch).
type smallObjectSection struct {
	Encoding    string                       `json:"encoding"`
	ObjectBytes int                          `json:"object_bytes"`
	TotalOps    int                          `json:"total_ops"`
	Mix         workload.OpMix               `json:"mix"`
	Unbatched   []*workload.SaturationResult `json:"unbatched"`
	Batched     []*workload.SaturationResult `json:"batched"`
	BatchedX16  float64                      `json:"batched_x_at_w16"`
}

// saturateRuns is one encoding's worker sweep.
type saturateRuns struct {
	Encoding string `json:"encoding"`
	// Faulted marks the degraded-mode run (fault plan active).
	Faulted bool                         `json:"faulted"`
	Runs    []*workload.SaturationResult `json:"runs"`
	// ScalingX16v1 is ops/s at W=16 over ops/s at W=1 — the number the
	// stripe-scaling gate checks (≥ 2 expected on a ≥ 4-core box; on a
	// single-core box it only measures lock overhead, not parallelism).
	ScalingX16v1 float64 `json:"scaling_x_16_vs_1"`
}

// saturateFaultPlan is the degraded-mode pressure for -saturate-faults:
// background transients (retried), read-path bit rot (digest-discarded,
// feeding the dirty queue and scrub repairs), and two slow nodes. No
// hard-down node — Put stages all n shards, so a permanently offline
// node would fail every write rather than degrade reads.
func saturateFaultPlan() *cluster.FaultPlan {
	return &cluster.FaultPlan{
		Seed:    7,
		Default: cluster.NodeFaults{TransientProb: 0.05, CorruptProb: 0.02},
		Nodes: map[int]cluster.NodeFaults{
			5: {TransientProb: 0.05, CorruptProb: 0.02, Latency: 200 * time.Microsecond},
			6: {TransientProb: 0.05, CorruptProb: 0.02, Latency: 500 * time.Microsecond},
		},
	}
}

// openBenchCluster builds one sweep cell's cluster on the requested
// backend. Disk cells each get a fresh directory under root (a cell must
// start empty — reopening a previous cell's archive would replay its WAL
// and preload leftovers); SweepWorkers closes the cluster when the cell
// finishes.
func openBenchCluster(backend, root string, n int) (*cluster.Cluster, error) {
	if backend != store.BackendDisk {
		return cluster.New(n, nil), nil
	}
	dir, err := os.MkdirTemp(root, "cell-")
	if err != nil {
		return nil, err
	}
	return cluster.Open(n, nil, store.Config{Backend: store.BackendDisk, Dir: dir})
}

// runSaturate sweeps every Figure 1 encoding through the closed-loop
// driver at saturateWorkers concurrency levels, writing the curves to
// outPath. encFilter, when non-empty, is a comma-separated substring
// filter over encoding names (case-insensitive). storeBackend selects
// the backend the main and small-object sweeps run on. withMain runs the
// main per-encoding sweep; withSmall appends the batched-vs-unbatched
// 4 KiB small-object sweep; withDisk appends the fsync-backed
// mem-vs-disk comparison.
func runSaturate(outPath, encFilter, storeBackend string, withFaults bool, totalOps, objKiB int, withMain, withSmall, withDisk, withNet, withRead bool) {
	if storeBackend == "" {
		storeBackend = store.BackendMem
	}
	if storeBackend != store.BackendMem && storeBackend != store.BackendDisk {
		fatal(fmt.Errorf("unknown -saturate-store backend %q", storeBackend))
	}
	root, err := os.MkdirTemp("", "papereval-saturate-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(root)

	fmt.Printf("=== closed-loop saturation sweep (striped-vault scaling, %s backend) ===\n", storeBackend)
	objBytes := objKiB << 10
	cfg := workload.SaturationConfig{
		TotalOps:    totalOps,
		ObjectBytes: objBytes,
		Preload:     6,
		Mix:         workload.DefaultMix(),
		Seed:        1,
	}
	rep := saturateReport{
		Schema:      "securearchive/bench-saturate/v1",
		GoMaxProc:   runtime.GOMAXPROCS(0),
		Backend:     storeBackend,
		ObjectBytes: objBytes,
		TotalOps:    cfg.TotalOps,
		Preload:     cfg.Preload,
		Mix:         cfg.Mix,
		Seed:        cfg.Seed,
	}

	if withMain {
		fcfg := core.Figure1Config{N: 8, K: 4, T: 4, PackCount: 3, ObjectLen: objBytes}
		var filters []string
		for _, f := range strings.Split(encFilter, ",") {
			if f = strings.TrimSpace(strings.ToLower(f)); f != "" {
				filters = append(filters, f)
			}
		}
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintf(w, "encoding\tfaults\tW\tops/s\tput p99 (µs)\tget p99 (µs)\terrs\n")
		for _, enc := range core.Figure1Encodings(fcfg) {
			if len(filters) > 0 {
				name := strings.ToLower(enc.Name())
				keep := false
				for _, f := range filters {
					if strings.Contains(name, f) {
						keep = true
					}
				}
				if !keep {
					continue
				}
			}
			modes := []bool{false}
			if withFaults {
				modes = append(modes, true)
			}
			for _, faulted := range modes {
				enc, faulted := enc, faulted
				mk := func() (*core.Vault, *obs.Registry, error) {
					reg := obs.NewRegistry()
					c, err := openBenchCluster(storeBackend, root, 8)
					if err != nil {
						return nil, nil, err
					}
					c.UseRegistry(reg)
					if faulted {
						c.SetFaultPlan(saturateFaultPlan())
					}
					v, err := core.NewVault(c, enc,
						core.WithGroup(group.Test()), core.WithRegistry(reg))
					return v, reg, err
				}
				runs, err := workload.SweepWorkers(saturateWorkers, cfg, mk)
				if err != nil {
					fatal(err)
				}
				sr := saturateRuns{
					Encoding:     enc.Name(),
					Faulted:      faulted,
					Runs:         runs,
					ScalingX16v1: workload.ScalingX(runs, 1, 16),
				}
				rep.Encodings = append(rep.Encodings, sr)
				for _, r := range runs {
					fmt.Fprintf(w, "%s\t%v\t%d\t%.0f\t%.0f\t%.0f\t%d\n",
						enc.Name(), faulted, r.Workers, r.OpsPerSec,
						r.PutLatency.P99Ns/1e3, r.GetLatency.P99Ns/1e3, r.Errors)
				}
			}
		}
		w.Flush()

		fmt.Println("\nscaling (ops/s at W=16 over W=1):")
		for _, sr := range rep.Encodings {
			tag := ""
			if sr.Faulted {
				tag = " [faults]"
			}
			fmt.Printf("  %-34s%s %.2fx\n", sr.Encoding, tag, sr.ScalingX16v1)
		}
		if rep.GoMaxProc < 4 {
			fmt.Printf("note: GOMAXPROCS=%d — the ≥2x stripe-scaling gate applies only on ≥4-core boxes\n", rep.GoMaxProc)
		}
	}

	if withSmall {
		rep.SmallObject = runSmallObjectSweep(storeBackend, root, totalOps)
	}

	if withDisk {
		rep.Disk = runDiskSweep(root, totalOps, objBytes)
	}

	if withNet {
		rep.Network = runNetSweep(totalOps, objBytes)
	}

	if withRead {
		rep.ReadCache = runReadCacheSweep(storeBackend, root, totalOps, objBytes)
	}

	blob, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n\n", outPath)
}

// runSmallObjectSweep measures the batched-write win on 4 KiB objects:
// the same closed-loop sweep twice over RS 4-of-8, first with every put
// a full Vault.Put (signature + commitment chain + 8 staged shards per
// object), then with all puts funnelled through one shared core.Batcher
// (group commit: one chain and one stripe per batch).
func runSmallObjectSweep(storeBackend, root string, totalOps int) *smallObjectSection {
	fmt.Println("=== small-object sweep (4 KiB, batched vs unbatched) ===")
	enc := core.Erasure{K: 4, N: 8}
	sec := &smallObjectSection{
		Encoding:    enc.Name(),
		ObjectBytes: workload.SmallObjectBytes,
		TotalOps:    totalOps,
		Mix:         workload.SmallObjectMix(),
	}
	mk := func() (*core.Vault, *obs.Registry, error) {
		reg := obs.NewRegistry()
		c, err := openBenchCluster(storeBackend, root, 8)
		if err != nil {
			return nil, nil, err
		}
		c.UseRegistry(reg)
		v, err := core.NewVault(c, enc,
			core.WithGroup(group.Test()), core.WithRegistry(reg))
		return v, reg, err
	}
	cfg := workload.SaturationConfig{
		TotalOps:    totalOps,
		ObjectBytes: workload.SmallObjectBytes,
		Preload:     6,
		Mix:         sec.Mix,
		Seed:        1,
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "mode\tW\tops/s\tput p99 (µs)\terrs\n")
	for _, batched := range []bool{false, true} {
		c := cfg
		c.Batched = batched
		runs, err := workload.SweepWorkers(saturateWorkers, c, mk)
		if err != nil {
			fatal(err)
		}
		mode := "unbatched"
		if batched {
			mode = "batched"
			sec.Batched = runs
		} else {
			sec.Unbatched = runs
		}
		for _, r := range runs {
			fmt.Fprintf(w, "%s\t%d\t%.0f\t%.0f\t%d\n",
				mode, r.Workers, r.OpsPerSec, r.PutLatency.P99Ns/1e3, r.Errors)
		}
	}
	w.Flush()
	var un, ba float64
	for _, r := range sec.Unbatched {
		if r.Workers == 16 {
			un = r.OpsPerSec
		}
	}
	for _, r := range sec.Batched {
		if r.Workers == 16 {
			ba = r.OpsPerSec
		}
	}
	if un > 0 {
		sec.BatchedX16 = ba / un
	}
	fmt.Printf("batched/unbatched at W=16: %.2fx (gate: ≥2x)\n", sec.BatchedX16)
	return sec
}

// runDiskSweep measures the durability tax: the same encoding, workload
// and worker sweep against the in-memory backend and against the disk
// backend (WAL + append-only segments, fsync on every stripe commit).
// The ratio at W=16 is the honest cost of crash-consistent archival —
// closed-loop workers overlap their commits, so group pressure on the
// shared WAL partially amortises the fsyncs and the sweep shows how much.
func runDiskSweep(root string, totalOps, objBytes int) *diskSection {
	fmt.Println("=== durability sweep (mem vs fsync-backed disk) ===")
	enc := core.Erasure{K: 4, N: 8}
	sec := &diskSection{
		Encoding:    enc.Name(),
		ObjectBytes: objBytes,
		TotalOps:    totalOps,
		Fsync:       diskstore.FsyncCommit,
	}
	cfg := workload.SaturationConfig{
		TotalOps:    totalOps,
		ObjectBytes: objBytes,
		Preload:     6,
		Mix:         workload.DefaultMix(),
		Seed:        1,
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "backend\tW\tops/s\tput p99 (µs)\tget p99 (µs)\terrs\n")
	for _, backend := range []string{store.BackendMem, store.BackendDisk} {
		backend := backend
		mk := func() (*core.Vault, *obs.Registry, error) {
			reg := obs.NewRegistry()
			c, err := openBenchCluster(backend, root, 8)
			if err != nil {
				return nil, nil, err
			}
			c.UseRegistry(reg)
			v, err := core.NewVault(c, enc,
				core.WithGroup(group.Test()), core.WithRegistry(reg))
			return v, reg, err
		}
		runs, err := workload.SweepWorkers(saturateWorkers, cfg, mk)
		if err != nil {
			fatal(err)
		}
		if backend == store.BackendDisk {
			sec.Disk = runs
		} else {
			sec.Mem = runs
		}
		for _, r := range runs {
			fmt.Fprintf(w, "%s\t%d\t%.0f\t%.0f\t%.0f\t%d\n",
				backend, r.Workers, r.OpsPerSec,
				r.PutLatency.P99Ns/1e3, r.GetLatency.P99Ns/1e3, r.Errors)
		}
	}
	w.Flush()
	var mem, disk float64
	for _, r := range sec.Mem {
		if r.Workers == 16 {
			mem = r.OpsPerSec
		}
	}
	for _, r := range sec.Disk {
		if r.Workers == 16 {
			disk = r.OpsPerSec
		}
	}
	if mem > 0 {
		sec.DiskX16 = disk / mem
	}
	fmt.Printf("disk/mem at W=16: %.2fx (fsync=%s)\n", sec.DiskX16, sec.Fsync)
	return sec
}

// netChunkBytes is the vault chunk size the networked sweep runs with:
// small enough that every 16 KiB object streams through the chunked
// pipeline as several chunks, so the sweep exercises (and its
// stream_peak_bytes evidences) the memory-bounded transfer path rather
// than a one-chunk object.
const netChunkBytes = 4 << 10

// runNetSweep measures the service tax: the closed-loop driver issuing
// every operation through the archive service's HTTP API over loopback
// — streaming uploads into the chunked pipeline, streaming downloads
// out of it, JSON control responses — with one fresh in-memory server
// per cell. Reads the same deterministic payloads the in-process
// sweeps use, so wire corruption would surface as errors.
func runNetSweep(totalOps, objBytes int) *networkSection {
	fmt.Println("=== networked sweep (loopback HTTP service) ===")
	enc := core.Erasure{K: 4, N: 8}
	sec := &networkSection{
		Encoding:    enc.Name(),
		ObjectBytes: objBytes,
		TotalOps:    totalOps,
		Transport:   "http/loopback",
		ChunkBytes:  netChunkBytes,
		Mix:         workload.DefaultMix(),
	}
	mk := func() (*workload.NetworkCell, error) {
		reg := obs.NewRegistry()
		c := cluster.New(8, nil)
		c.UseRegistry(reg)
		v, err := core.NewVault(c, enc,
			core.WithGroup(group.Test()), core.WithRegistry(reg),
			core.WithChunkSize(netChunkBytes))
		if err != nil {
			return nil, err
		}
		svc := api.NewServer(v, api.Config{Registry: reg})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 5 * time.Second}
		go srv.Serve(ln)
		return &workload.NetworkCell{
			BaseURL:    "http://" + ln.Addr().String(),
			Registry:   reg,
			StreamPeak: v.StreamPeakBuffered,
			Shutdown: func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				srv.Shutdown(ctx)
				c.Close()
			},
		}, nil
	}
	cfg := workload.NetworkConfig{
		TotalOps:    totalOps,
		ObjectBytes: objBytes,
		Preload:     6,
		Mix:         sec.Mix,
		Seed:        1,
	}
	runs, err := workload.SweepNetworkWorkers(saturateWorkers, cfg, mk)
	if err != nil {
		fatal(err)
	}
	sec.Runs = runs
	sec.ScalingX16v1 = workload.NetScalingX(runs, 1, 16)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "W\tops/s\tput p99 (µs)\tget p99 (µs)\tstream peak (KiB)\terrs\n")
	for _, r := range runs {
		fmt.Fprintf(w, "%d\t%.0f\t%.0f\t%.0f\t%d\t%d\n",
			r.Workers, r.OpsPerSec, r.PutLatency.P99Ns/1e3, r.GetLatency.P99Ns/1e3,
			r.StreamPeakBytes>>10, r.Errors)
	}
	w.Flush()
	fmt.Printf("network scaling at W=16 over W=1: %.2fx\n", sec.ScalingX16v1)
	return sec
}

// readCacheSkews are the zipfian skew levels the -saturate-read sweep
// measures: barely-skewed (the gate's level), moderately hot, and
// pathologically hot.
var readCacheSkews = []float64{1.1, 1.5, 2.0}

// readCacheWorkers are the concurrency levels for -saturate-read; the
// gate compares cached vs uncached at 16.
var readCacheWorkers = []int{1, 16}

// runReadCacheSweep measures the hot-object read cache: a pure-Get
// zipfian workload over 64 preloaded objects, with the cache budgeted at
// HALF the working set so the admission filter and SLRU eviction decide
// who stays resident. Each skew level runs the same sweep uncached and
// cached; every Get verifies its payload, so a cache serving stale or
// cross-wired bytes shows up as errors, not just as a soft number.
func runReadCacheSweep(storeBackend, root string, totalOps, objBytes int) *readCacheSection {
	fmt.Println("=== read-cache sweep (zipfian gets, cached vs uncached) ===")
	enc := core.Erasure{K: 4, N: 8}
	const preload = 64
	// Enough ops that the preload's compulsory misses don't drown the
	// steady state at the default -saturate-ops.
	readOps := totalOps
	if readOps < 960 {
		readOps = 960
	}
	cacheBytes := int64(objBytes) * preload / 2
	sec := &readCacheSection{
		Encoding:    enc.Name(),
		ObjectBytes: objBytes,
		TotalOps:    readOps,
		Preload:     preload,
		CacheBytes:  cacheBytes,
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "skew\tcache\tW\tread ops/s\tget p99 (µs)\thit%%\terrs\n")
	for _, skew := range readCacheSkews {
		cfg := workload.SaturationConfig{
			TotalOps:    readOps,
			ObjectBytes: objBytes,
			Preload:     preload,
			Mix:         workload.OpMix{Get: 1},
			Seed:        1,
			ReadSkew:    skew,
		}
		rs := readCacheSkew{Skew: skew}
		for _, cached := range []bool{false, true} {
			cached := cached
			mk := func() (*core.Vault, *obs.Registry, error) {
				reg := obs.NewRegistry()
				c, err := openBenchCluster(storeBackend, root, 8)
				if err != nil {
					return nil, nil, err
				}
				c.UseRegistry(reg)
				opts := []core.VaultOption{core.WithGroup(group.Test()), core.WithRegistry(reg)}
				if cached {
					opts = append(opts, core.WithReadCache(cacheBytes))
				}
				v, err := core.NewVault(c, enc, opts...)
				return v, reg, err
			}
			runs, err := workload.SweepWorkers(readCacheWorkers, cfg, mk)
			if err != nil {
				fatal(err)
			}
			mode := "off"
			if cached {
				mode = "on"
				rs.Cached = runs
			} else {
				rs.Uncached = runs
			}
			for _, r := range runs {
				fmt.Fprintf(w, "%.1f\t%s\t%d\t%.0f\t%.0f\t%.0f\t%d\n",
					skew, mode, r.Workers, r.OpsPerSec,
					r.GetLatency.P99Ns/1e3, 100*r.CacheHitRatio, r.Errors)
			}
		}
		var un, ca float64
		for _, r := range rs.Uncached {
			if r.Workers == 16 {
				un = r.OpsPerSec
			}
		}
		for _, r := range rs.Cached {
			if r.Workers == 16 {
				ca = r.OpsPerSec
				rs.HitRatio16 = r.CacheHitRatio
			}
		}
		if un > 0 {
			rs.CachedX16 = ca / un
		}
		sec.Skews = append(sec.Skews, rs)
	}
	w.Flush()
	for _, rs := range sec.Skews {
		fmt.Printf("skew %.1f: cached/uncached at W=16: %.2fx (hit ratio %.2f)\n",
			rs.Skew, rs.CachedX16, rs.HitRatio16)
	}
	fmt.Println("gate: ≥2x at skew 1.1")
	return sec
}
