package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"securearchive/internal/api/client"
	"securearchive/internal/core"
)

// runConfig is one run of one workload. The zero preload and warmup mean
// the workload's own; tests scale both down and swap in the small group.
type runConfig struct {
	w       *workload
	seed    int64
	window  time.Duration
	workDir string // store directories are made (and removed) under it

	preload   int
	warmup    int
	vaultOpts []core.VaultOption
}

const (
	defaultWarmup = 200
	windowSlices  = 10 // ops/s is the median of this many equal slices of the window
	auditEvery    = 16 // every 16th object PUT in the window is read back after it
	// A cheap set-up is repeated and its median reported; an expensive one
	// (the 2048-object preload) is not, so that the run fits its time.
	maxSetups       = 3
	setupBudgetSecs = 6.0
)

func (c runConfig) withDefaults() runConfig {
	if c.preload == 0 {
		c.preload = c.w.preload
	}
	if c.warmup == 0 {
		c.warmup = defaultWarmup
	}
	return c
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var errMismatch = errors.New("payload mismatch")

// target is where a worker sends its ops: the service over HTTP, or the
// vault in-process (the traced run's core spans).
type target interface {
	put(ctx context.Context, id string, body io.Reader) (int64, error)
	get(ctx context.Context, id string, w io.Writer) (int64, error)
	del(ctx context.Context, id string) error
}

// httpTarget is the service's client. Against a traced service a call
// returns only once the server's handler has, so that the call's span
// covers all the work the request caused (see startService).
type httpTarget struct {
	c       *client.Client
	handled <-chan struct{}
}

func (s *service) http() httpTarget { return httpTarget{s.client, s.handled} }

func (t httpTarget) wait(err error) error {
	if err == nil && t.handled != nil {
		<-t.handled
	}
	return err
}

func (t httpTarget) put(ctx context.Context, id string, body io.Reader) (int64, error) {
	n, err := t.c.Put(ctx, id, body)
	return n, t.wait(err)
}
func (t httpTarget) get(ctx context.Context, id string, w io.Writer) (int64, error) {
	n, err := t.c.GetTo(ctx, id, w)
	return n, t.wait(err)
}
func (t httpTarget) del(ctx context.Context, id string) error { return t.wait(t.c.Delete(ctx, id)) }

type vaultTarget struct{ v *core.Vault }

func (t vaultTarget) put(ctx context.Context, id string, body io.Reader) (int64, error) {
	return t.v.PutReader(ctx, tenantPrefix+id, body)
}
func (t vaultTarget) get(ctx context.Context, id string, w io.Writer) (int64, error) {
	return t.v.ReadTo(ctx, tenantPrefix+id, w)
}
func (t vaultTarget) del(ctx context.Context, id string) error {
	return t.v.DeleteContext(ctx, tenantPrefix+id)
}

// timer times one call; the traced run substitutes recorder.root.
type timer func(name string, bytes int64, fn func() error) (time.Duration, error)

func wallTimer(_ string, _ int64, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

type sample struct {
	kind  opKind
	endNs int64 // completion, ns from the window's start
	latNs int64
}

// worker is one closed-loop client: it sends its generator's next op
// only when the previous one has been acknowledged and checked.
type worker struct {
	g       *gen
	seed    int64
	scratch []byte       // the payload being PUT, or the one a GET must return
	got     bytes.Buffer // the GET body

	samples   []sample
	speed     *speedMeter
	audit     []string // objects to read back once the window has closed
	puts      int
	liveBytes int64 // user bytes acknowledged and not deleted
}

func newWorker(w *workload, seed int64, id, preload int) *worker {
	wk := &worker{g: newGen(w, seed, id, preload), seed: seed, scratch: make([]byte, w.objSize)}
	wk.got.Grow(w.objSize)
	return wk
}

// do performs one op against tg and checks its outcome: a PUT must
// acknowledge every byte, a GET must return exactly the object's
// payload. Payloads are generated before the clock starts.
func (wk *worker) do(o op, tg target, layer string, timed timer) (time.Duration, error) {
	ctx := context.Background()
	size := int64(len(wk.scratch))
	name := layer + "." + kindNames[o.kind]
	var lat time.Duration
	var err error
	switch o.kind {
	case opPut:
		fillPayload(wk.scratch, wk.seed, o.id)
		var n int64
		lat, err = timed(name, size, func() (err error) {
			n, err = tg.put(ctx, o.id, bytes.NewReader(wk.scratch))
			return err
		})
		if err == nil && n != size {
			err = fmt.Errorf("%d of %d bytes acknowledged", n, size)
		}
		if err == nil {
			wk.liveBytes += size
			wk.puts++
		}
	case opGet:
		fillPayload(wk.scratch, wk.seed, o.id)
		wk.got.Reset()
		lat, err = timed(name, size, func() error {
			_, err := tg.get(ctx, o.id, &wk.got)
			return err
		})
		if err == nil && !bytes.Equal(wk.got.Bytes(), wk.scratch) {
			err = errMismatch
		}
	case opDelete:
		lat, err = timed(name, 0, func() error { return tg.del(ctx, o.id) })
		if err == nil {
			wk.liveBytes -= size
		}
	}
	if err != nil {
		return lat, fmt.Errorf("%s %s: %w", kindNames[o.kind], o.id, err)
	}
	return lat, nil
}

// runOps sends ops over HTTP until stop says so at a cycle boundary.
// With a window start, each op is kept as a sample.
func (wk *worker) runOps(svc *service, windowStart time.Time, stop func(done int) bool) error {
	tg := svc.http()
	for done := 0; !(wk.g.atBoundary() && stop(done)); done++ {
		o := wk.g.next()
		lat, err := wk.do(o, tg, "api", wallTimer)
		if err != nil {
			return err
		}
		if windowStart.IsZero() {
			continue
		}
		wk.speed.tick()
		wk.samples = append(wk.samples, sample{o.kind, time.Since(windowStart).Nanoseconds(), lat.Nanoseconds()})
		if o.kind == opPut && !wk.g.w.cycle && wk.puts%auditEvery == 0 {
			wk.audit = append(wk.audit, o.id)
		}
	}
	return nil
}

// bench is a service that has been set up for a workload: preloaded,
// warmed, its workers positioned at the first op of the window.
type bench struct {
	cfg      runConfig
	svc      *service
	workers  []*worker
	baseLive int64 // user bytes archived by set-up outside the workers (preload, sentinel)
	// baseline is StoredBytes once set-up's own objects are in; a cycle
	// workload must come back to it.
	baseline int64
}

const sentinelID = "sentinel"

var setupSeq atomic.Int64 // numbers the store directories of one process

// setUp starts a fresh service for the workload and brings it to the
// point where the window opens: store opened, objects preloaded through
// the vault, a sentinel object archived for cycle workloads (it must
// survive the churn and gives stored-bytes something to be measured
// on), and cfg.warmup ops sent by the workers over HTTP.
func setUp(cfg runConfig, nWorkers int, rec *recorder) (*bench, error) {
	// The disk backend makes the directory; the mem backend ignores it.
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d-%d", cfg.w.name, os.Getpid(), setupSeq.Add(1)))
	svc, err := startService(cfg.w, dir, rec, cfg.vaultOpts...)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	b := &bench{cfg: cfg, svc: svc}
	fail := func(err error) (*bench, error) {
		svc.close()
		return nil, err
	}
	if err := svc.preload(cfg.w, cfg.seed, cfg.preload); err != nil {
		return fail(err)
	}
	b.baseLive = int64(cfg.preload) * int64(cfg.w.objSize)
	if cfg.w.cycle {
		buf := make([]byte, cfg.w.objSize)
		fillPayload(buf, cfg.seed, sentinelID)
		if _, err := (vaultTarget{svc.vault}).put(context.Background(), sentinelID, bytes.NewReader(buf)); err != nil {
			return fail(fmt.Errorf("sentinel: %w", err))
		}
		b.baseLive += int64(len(buf))
	}
	b.baseline = svc.cluster.StoredBytes()
	for i := 0; i < nWorkers; i++ {
		b.workers = append(b.workers, newWorker(cfg.w, cfg.seed, i, cfg.preload))
	}
	share := cfg.warmup / nWorkers
	if err := b.parallel(func(wk *worker) error {
		return wk.runOps(svc, time.Time{}, func(done int) bool { return done >= share })
	}); err != nil {
		return fail(fmt.Errorf("warm-up: %w", err))
	}
	return b, nil
}

func (b *bench) parallel(fn func(*worker) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(b.workers))
	for i, wk := range b.workers {
		wg.Add(1)
		go func(i int, wk *worker) {
			defer wg.Done()
			errs[i] = fn(wk)
		}(i, wk)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (b *bench) liveBytes() int64 {
	live := b.baseLive
	for _, wk := range b.workers {
		live += wk.liveBytes
	}
	return live
}

// verifyAfter checks what the ops themselves could not: the sampled PUTs
// of the window read back byte for byte, the sentinel survived, a cycle
// workload is back at its baseline, and (for the disk backend) the store
// closes and reopens clean. It stops the service.
func (b *bench) verifyAfter() (storedPerUserByte float64, err error) {
	wk0, tg := b.workers[0], b.svc.http()
	ids := []string{}
	for _, wk := range b.workers {
		ids = append(ids, wk.audit...)
	}
	if b.cfg.w.cycle {
		ids = append(ids, sentinelID)
	}
	for _, id := range ids {
		if _, err := wk0.do(op{opGet, id}, tg, "api", wallTimer); err != nil {
			return 0, fmt.Errorf("read-back: %w", err)
		}
	}
	stored := b.svc.cluster.StoredBytes()
	if b.cfg.w.cycle && stored != b.baseline {
		return 0, fmt.Errorf("stored bytes %d after the last DELETE, baseline %d", stored, b.baseline)
	}
	if n := b.svc.cluster.StagedCount(); n != 0 {
		return 0, fmt.Errorf("%d shards left staged", n)
	}
	if b.svc.dir != "" {
		if _, _, err := b.svc.reopenAudit(); err != nil {
			return 0, err
		}
	}
	return float64(stored) / float64(b.liveBytes()), nil
}

// kindStats is the per-op-type view of a window, for the printed summary.
type kindStats struct {
	n                  int
	opsS               float64
	p50, p95, p99, max float64 // ms
}

// e2eRun is a finished end-to-end run: the contract's result plus the
// per-op-type breakdown it was computed from.
type e2eRun struct {
	result
	setups []float64
	kinds  [numKinds]kindStats
	// speed scales the time-based metrics of the result (see speed.go);
	// kinds holds raw values.
	speed float64
}

// runE2E measures one workload end to end with tracing off: W = 2 closed
// loop over HTTP for cfg.window, every outcome checked.
func runE2E(cfg runConfig) (*e2eRun, error) {
	cfg = cfg.withDefaults()
	var b *bench
	var setups []float64
	var spent float64
	for {
		start := time.Now()
		var err error
		if b, err = setUp(cfg, clients, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start).Seconds()
		setups = append(setups, took)
		spent += took
		if len(setups) == maxSetups || spent+took > setupBudgetSecs {
			break
		}
		if err := b.svc.close(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer b.svc.close()

	var meters []*speedMeter
	for _, wk := range b.workers {
		wk.speed = newSpeedMeter()
		meters = append(meters, wk.speed)
	}
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(cfg.window)
	err := b.parallel(func(wk *worker) error {
		return wk.runOps(b.svc, start, func(int) bool { return !time.Now().Before(deadline) })
	})
	speed, burstCPU := speedOf(meters)
	cpu := cpuTime() - cpu0 - burstCPU
	rssMB, rssErr := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}
	ratio, err := b.verifyAfter()
	if err != nil {
		return nil, err
	}

	run := &e2eRun{setups: setups, speed: speed}
	var lats [numKinds][]float64
	var ends [numKinds][]int64
	var allLat []float64
	var allEnds []int64
	for _, wk := range b.workers {
		for _, s := range wk.samples {
			ms := float64(s.latNs) / 1e6
			lats[s.kind] = append(lats[s.kind], ms)
			ends[s.kind] = append(ends[s.kind], s.endNs)
			allLat = append(allLat, ms)
			allEnds = append(allEnds, s.endNs)
		}
	}
	if len(allLat) == 0 {
		return nil, errors.New("no op completed in the window")
	}
	for k := range lats {
		if len(lats[k]) == 0 {
			continue
		}
		sort.Float64s(lats[k])
		run.kinds[k] = kindStats{
			n:    len(lats[k]),
			opsS: medianSliceRate(ends[k], cfg.window.Nanoseconds(), windowSlices),
			p50:  percentile(lats[k], 50), p95: percentile(lats[k], 95), p99: percentile(lats[k], 99),
			max: lats[k][len(lats[k])-1],
		}
	}
	sort.Float64s(allLat)
	run.result = result{
		Correct:   true,
		Attempted: int64(len(allLat)),
		Metrics: map[string]metric{
			"setup_s":                    {median(setups) * speed, "s"},
			"ops_s":                      {medianSliceRate(allEnds, cfg.window.Nanoseconds(), windowSlices) / speed, "ops/s"},
			"p50_ms":                     {percentile(allLat, 50) * speed, "ms"},
			"p95_ms":                     {percentile(allLat, 95) * speed, "ms"},
			"cpu_ms_per_op":              {cpu.Seconds() * 1e3 / float64(len(allLat)) * speed, "ms"},
			"stored_bytes_per_user_byte": {ratio, "ratio"},
			"rss_peak_mb":                {rssMB, "MB"},
		},
	}
	return run, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
