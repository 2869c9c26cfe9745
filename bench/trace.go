package main

import (
	"bufio"
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"securearchive/internal/cluster"
	"securearchive/internal/core"
	"securearchive/internal/gf256"
	"securearchive/internal/rs"
	"securearchive/internal/sig"
	"securearchive/internal/tstamp"
)

// The traced run sends its ops one at a time (W = 1) and rotates each
// through three modes, so that drift in the box or in the cache hits all
// three alike:
//
//	ref   over HTTP with the recorder off — the untraced reference
//	api   over HTTP with the recorder on  — root span api.<op>
//	core  in-process against the vault    — root span core.<op>
const (
	modeRef = iota
	modeAPI
	modeCore
	numModes
)

const (
	// passShare of the run's seconds go to the rotated pass; the rest is
	// left for set-up, the probes and the direct calls.
	passShare = 0.55
	// A workload that issues fewer than minProbe PUTs (or GETs) in core
	// mode gets a probe of that op at its object size, so that every
	// workload prints both budgets and every layer metric has a value.
	minProbe = 10
	probeOps = 300
	// tstampEvery spaces the direct tstamp rounds of the pass; a round
	// takes about 12 ms, so they use about a tenth of it. A probe is short
	// and makes a round on every turn of the rotation.
	tstampEvery = 100 * time.Millisecond
	// kernelTime is how long each rs and gf256 kernel is called for; a
	// call takes microseconds, so a fixed count would be too few.
	kernelTime = 50 * time.Millisecond
)

// tracedRun is a finished traced run.
type tracedRun struct {
	result
	budget string
}

type tracer struct {
	b   *bench
	rec *recorder
	wk  *worker
	n   [numModes][numKinds]int
	lat [numModes][numKinds][]float64 // ms
	// live are the objects PUT by the pass and not deleted; a GET probe
	// reads them back.
	live []string
	// allocs[kind] = heap objects, bytes and ops of the allocation pass.
	allocs [numKinds]struct{ mallocs, bytes, ops uint64 }
	mode   int

	// For the direct calls: a payload of the workload's object size, its
	// digest and a chain over it; lastTstamp is when tstampRound last ran.
	payload    []byte
	digest     [sha256.Size]byte
	chain      *tstamp.Chain
	lastTstamp time.Time
	// source[kind] is the stretch of the run (ns on the recorder's clock)
	// that supplied the kind's spans: the pass, or that kind's probe. A
	// direct tstamp timing is subtracted only from spans of its own
	// stretch; the box's speed differs from one to the next.
	source  [numKinds]interval
	inProbe bool
}

func newTracer(b *bench, rec *recorder) (*tracer, error) {
	t := &tracer{b: b, rec: rec, wk: b.workers[0], payload: make([]byte, b.cfg.w.objSize)}
	fillPayload(t.payload, b.cfg.seed, "direct")
	t.digest = sha256.Sum256(t.payload)
	return t, t.tstampRound()
}

// tstampRound times one call each of group.Exp, tstamp.NewFromDigest
// and Chain.VerifyData, with the vault's own group and reference mode.
// These are the layers no decorator can reach, and the largest lines of
// the budget; the rounds are spread through the pass (see rotate) so
// that they see the same box, second for second, as the spans they are
// subtracted from.
func (t *tracer) tstampRound() error {
	v, rec := t.b.svc.vault, t.rec
	on := rec.on.Swap(true)
	defer rec.on.Store(on)
	t.lastTstamp = time.Now()
	e, err := v.Group.RandScalar(rand.Reader)
	if err != nil {
		return err
	}
	rec.root("group.exp", 0, func() error { v.Group.ExpG(e); return nil })
	if _, err := rec.root("tstamp.new", 0, func() (err error) {
		t.chain, err = tstamp.NewFromDigest(t.digest, v.IntegrityMode, sig.Ed25519, t.b.svc.cluster.Epoch(), v.Group, rand.Reader)
		return err
	}); err != nil {
		return err
	}
	_, err = rec.root("tstamp.verify", 0, func() error { return t.chain.VerifyData(t.payload) })
	return err
}

// step sends the worker's next op in the next mode of the rotation. The
// mode changes only at a cycle boundary, so a PUT/GET/DELETE cycle stays
// in one mode and every mode sees every kind.
func (t *tracer) step(o op) error {
	var tg target = t.b.svc.http()
	layer, timed := "ref", timer(wallTimer)
	switch t.mode {
	case modeAPI:
		layer, timed = "api", t.rec.root
	case modeCore:
		tg, layer, timed = vaultTarget{t.b.svc.vault}, "core", t.rec.root
	}
	t.rec.on.Store(t.mode != modeRef)
	lat, err := t.wk.do(o, tg, layer, timed)
	t.rec.on.Store(false)
	if err != nil {
		return err
	}
	t.n[t.mode][o.kind]++
	t.lat[t.mode][o.kind] = append(t.lat[t.mode][o.kind], float64(lat.Nanoseconds())/1e6)
	if o.kind == opPut && !t.b.cfg.w.cycle {
		t.live = append(t.live, o.id)
	}
	return nil
}

// sampleAllocs counts the heap allocations of in-process PUTs and GETs
// with runtime.MemStats, one op at a time. It is a pass of its own,
// untimed: reading MemStats stops the world, and an op that follows it
// runs measurably slower. Each round PUTs a new object and GETs one: the
// workload's next GET key if it has preloaded objects (so a hot workload
// counts its cache hits), else the object just PUT. A cycle workload
// DELETEs the object again.
func (t *tracer) sampleAllocs() error {
	w, tg := t.b.cfg.w, vaultTarget{t.b.svc.vault}
	rounds := 48
	if w.objSize > core.DefaultChunkSize {
		rounds = 12
	}
	for i := 0; i < rounds; i++ {
		id := fmt.Sprintf("a/%d", i)
		ops := []op{{opPut, id}, {opGet, id}}
		if t.b.cfg.preload > 0 {
			for ops[1] = t.wk.g.next(); ops[1].kind != opGet; {
				ops[1] = t.wk.g.next()
			}
		}
		if w.cycle {
			ops = append(ops, op{opDelete, id})
		}
		for _, o := range ops {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			_, err := t.wk.do(o, tg, "core", wallTimer)
			runtime.ReadMemStats(&m1)
			if err != nil {
				return err
			}
			a := &t.allocs[o.kind]
			a.mallocs += m1.Mallocs - m0.Mallocs
			a.bytes += m1.TotalAlloc - m0.TotalAlloc
			a.ops++
		}
	}
	return nil
}

// rotate moves to the next mode, and every tstampEvery makes a round of
// direct tstamp calls between two turns of the rotation.
func (t *tracer) rotate() error {
	t.mode = (t.mode + 1) % numModes
	if t.mode == modeRef && (t.inProbe || time.Since(t.lastTstamp) >= tstampEvery) {
		return t.tstampRound()
	}
	return nil
}

func (t *tracer) ops(kind opKind) int {
	return t.n[modeRef][kind] + t.n[modeAPI][kind] + t.n[modeCore][kind]
}

// counters are the program's own tallies, read before and after the pass.
type counters struct {
	nodePuts, nodeGets, moved        int64
	hits, misses, evictions, rejects int64
	diskBytes, walBytes              int64
}

func (b *bench) counters() (counters, error) {
	c := b.svc.cluster
	k := counters{nodePuts: int64(c.Puts()), nodeGets: int64(c.Gets()), moved: c.TotalBytesMoved()}
	if st := b.svc.vault.CacheStats(); st != nil {
		k.hits, k.misses, k.evictions, k.rejects = st.Hits, st.Misses, st.Evictions, st.AdmitRejects
	}
	if b.svc.dir == "" {
		return k, nil
	}
	err := filepath.WalkDir(b.svc.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		k.diskBytes += info.Size()
		if d.Name() == "wal" {
			k.walBytes += info.Size()
		}
		return nil
	})
	return k, err
}

// runTraced measures the layers of one workload: the rotated pass, a
// probe for any op the workload does not issue, then direct calls into
// the layers no decorator can reach. outDir receives the span file.
func runTraced(cfg runConfig, outDir string) (*tracedRun, error) {
	cfg = cfg.withDefaults()
	rec := newRecorder()
	b, err := setUp(cfg, 1, rec)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer b.svc.close()
	t, err := newTracer(b, rec)
	if err != nil {
		return nil, err
	}

	before, err := b.counters()
	if err != nil {
		return nil, err
	}
	// A cycle workload cannot be probed one op at a time; its pass runs on
	// past the deadline until it has minProbe cycles in core mode.
	passStart := rec.now()
	deadline := time.Now().Add(time.Duration(passShare * float64(cfg.window)))
	enough := func() bool { return !cfg.w.cycle || t.n[modeCore][opPut] >= minProbe }
	for !(t.wk.g.atBoundary() && !time.Now().Before(deadline) && enough()) {
		if t.wk.g.atBoundary() {
			if err := t.rotate(); err != nil {
				return nil, err
			}
		}
		if err := t.step(t.wk.g.next()); err != nil {
			return nil, err
		}
	}
	probed := [numKinds]bool{}
	for _, kind := range []opKind{opPut, opGet} {
		t.source[kind] = interval{passStart, rec.now()}
		if t.n[modeCore][kind] >= minProbe {
			continue
		}
		probed[kind], t.inProbe = true, true
		t.source[kind].start = rec.now()
		if kind == opGet && len(t.live) == 0 {
			return nil, errors.New("GET probe: the pass left no object to read back")
		}
		for i := 0; i < probeOps; i++ {
			o := op{kind, fmt.Sprintf("x/%d", i)}
			if kind == opGet {
				o.id = t.live[i%len(t.live)]
			}
			if err := t.rotate(); err != nil {
				return nil, err
			}
			if err := t.step(o); err != nil {
				return nil, fmt.Errorf("probe: %w", err)
			}
		}
		t.source[kind].end, t.inProbe = rec.now(), false
	}
	after, err := b.counters()
	if err != nil {
		return nil, err
	}

	if err := t.sampleAllocs(); err != nil {
		return nil, fmt.Errorf("allocation pass: %w", err)
	}
	if err := t.directCalls(); err != nil {
		return nil, fmt.Errorf("direct calls: %w", err)
	}
	peakBuffered := b.svc.vault.StreamPeakBuffered()
	var reopenMs, recovered float64
	if b.svc.dir != "" {
		rep, took, err := b.svc.reopenAudit()
		if err != nil {
			return nil, err
		}
		reopenMs, recovered = float64(took.Nanoseconds())/1e6, float64(rep.Shards)
	} else if stored := b.svc.cluster.StoredBytes(); cfg.w.cycle && stored != b.baseline {
		return nil, fmt.Errorf("stored bytes %d after the last DELETE, baseline %d", stored, b.baseline)
	}

	// Everything below is arithmetic on the spans and the counters.
	size := float64(cfg.w.objSize)
	puts, gets := float64(t.ops(opPut)), float64(t.ops(opGet))
	agg := aggregate(rec.spans)
	apiPut, apiGet, corePut, coreGet := agg.of("api.put"), agg.of("api.get"), agg.of("core.put"), agg.of("core.get")
	put, get := merged(apiPut, corePut), merged(apiGet, coreGet)
	stage, fetch := agg.of("cluster.stage_commit"), agg.of("cluster.fetch_stripe")
	tsNew := aggregate(rec.within("tstamp.new", t.source[opPut])).of("tstamp.new").meanMs()
	tsVerify := aggregate(rec.within("tstamp.verify", t.source[opGet])).of("tstamp.verify").meanMs()
	missFrac := coreGet.childFrac()
	hitRatio := ratio(float64(after.hits-before.hits), float64(after.hits-before.hits+after.misses-before.misses))

	var refNs, apiNs float64 // what the api-mode ops took, and what they would have taken untraced
	for k := range t.lat[modeAPI] {
		if len(t.lat[modeRef][k]) > 0 && len(t.lat[modeAPI][k]) > 0 {
			n := float64(len(t.lat[modeAPI][k]))
			refNs += n * mean(t.lat[modeRef][k])
			apiNs += n * mean(t.lat[modeAPI][k])
		}
	}

	ms := func(v float64) metric { return metric{v, "ms"} }
	count := func(v float64) metric { return metric{v, "count"} }
	mbs := func(v float64) metric { return metric{v, "MB/s"} }
	m := map[string]metric{
		"api.put_ms": ms(apiPut.meanMs()),
		"api.get_ms": ms(apiGet.meanMs()),
		// What the api layer adds is the client span less the in-process
		// call. Both hold the same children (an fsync among them, the
		// noisiest thing in a PUT), so the children are taken out of each
		// before the means are compared.
		"api.self_put_ms": ms(apiPut.selfMs() - corePut.selfMs()),
		"api.self_get_ms": ms(apiGet.selfMs() - coreGet.selfMs()),
		"api.put_mb_s":    mbs(apiPut.mbPerS()),
		"api.get_mb_s":    mbs(apiGet.mbPerS()),
		"api.put_p99_ms":  ms(apiPut.p99()),
		"api.get_p99_ms":  ms(apiGet.p99()),

		"core.put_ms":      ms(corePut.meanMs()),
		"core.get_ms":      ms(coreGet.meanMs()),
		"core.self_put_ms": ms(corePut.selfMs() - tsNew - stage.selfMs()),
		"core.self_get_ms": ms(coreGet.selfMs() - missFrac*(tsVerify+fetch.selfMs())),

		"core.cache_hit_ratio":            {hitRatio, "ratio"},
		"core.cache_hit_ms":               ms(coreGet.bareMs()),
		"core.cache_evictions_per_get":    count(ratio(float64(after.evictions-before.evictions), gets)),
		"core.cache_admit_rejects":        count(float64(after.rejects - before.rejects)),
		"core.stream_peak_buffered_bytes": {float64(peakBuffered), "bytes"},
		"core.allocs_per_put":             count(ratio(float64(t.allocs[opPut].mallocs), float64(t.allocs[opPut].ops))),
		"core.allocs_per_get":             count(ratio(float64(t.allocs[opGet].mallocs), float64(t.allocs[opGet].ops))),
		"core.alloc_bytes_per_put":        {ratio(float64(t.allocs[opPut].bytes), float64(t.allocs[opPut].ops)), "bytes"},
		"core.alloc_bytes_per_get":        {ratio(float64(t.allocs[opGet].bytes), float64(t.allocs[opGet].ops)), "bytes"},

		"encoding.encode_ms_per_put": ms(put.childMs("encoding.encode")),
		"encoding.decode_ms_per_get": ms(get.childMs("encoding.decode")),
		"encoding.encode_mb_s":       mbs(put.childMBPerS("encoding.encode")),
		"encoding.decode_mb_s":       mbs(get.childMBPerS("encoding.decode")),
		"encoding.calls_per_put":     count(put.childCalls("encoding.encode")),
		"encoding.calls_per_get":     count(get.childCalls("encoding.decode")),

		"rs.encode_mb_s": mbs(agg.of("rs.encode").mbPerS()),
		"gf256.mul_mb_s": mbs(agg.of("gf256.mul").mbPerS()),
		"gf256.xor_mb_s": mbs(agg.of("gf256.xor").mbPerS()),

		"tstamp.new_ms":    ms(tsNew),
		"tstamp.verify_ms": ms(tsVerify),
		"group.exp_ms":     ms(agg.of("group.exp").meanMs()),

		"cluster.stage_commit_ms":           ms(stage.meanMs()),
		"cluster.fetch_stripe_ms":           ms(fetch.meanMs()),
		"cluster.self_stage_commit_ms":      ms(stage.selfMs()),
		"cluster.self_fetch_stripe_ms":      ms(fetch.selfMs()),
		"cluster.node_puts_per_put":         count(ratio(float64(after.nodePuts-before.nodePuts), puts)),
		"cluster.node_gets_per_get":         count(ratio(float64(after.nodeGets-before.nodeGets), gets)),
		"cluster.bytes_moved_per_user_byte": {ratio(float64(after.moved-before.moved), (puts+gets)*size), "ratio"},

		"store.stage_ms_per_put":         ms(put.childMs("store.stage")),
		"store.commit_ms_per_put":        ms(put.childMs("store.commit")),
		"store.get_ms_per_get":           ms(get.childMs("store.get")),
		"store.stage_calls_per_put":      count(put.childCalls("store.stage")),
		"store.commit_calls_per_put":     count(put.childCalls("store.commit")),
		"store.get_calls_per_get":        count(get.childCalls("store.get")),
		"store.disk_bytes_per_user_byte": {ratio(float64(after.diskBytes-before.diskBytes), puts*size), "ratio"},
		"store.wal_bytes_per_put":        {ratio(float64(after.walBytes-before.walBytes), puts), "bytes"},
		"store.reopen_ms":                ms(reopenMs),
		"store.recovered_shards":         count(recovered),

		"trace.overhead_ratio": {ratio(refNs, apiNs), "ratio"},
	}

	run := &tracedRun{}
	run.result = result{Correct: true, Attempted: int64(t.ops(opPut) + t.ops(opGet) + t.ops(opDelete)), Metrics: m}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: traced run, W = 1, %d spans; cache hit ratio %.3f, tracing overhead ratio %.3f\n",
		cfg.w.name, len(rec.spans), hitRatio, m["trace.overhead_ratio"].Value)
	writeBudget(&sb, "PUT", probed[opPut], m, apiPut, corePut, []budgetLine{
		{"encoding.encode", put.childMs("encoding.encode"), fmt.Sprintf("rs alone: %.3f ms at rs.encode_mb_s", ratio(size/1e3, m["rs.encode_mb_s"].Value))},
		{"tstamp.new", tsNew, fmt.Sprintf("group.exp %.3f ms each", m["group.exp_ms"].Value)},
		{"cluster (self)", stage.selfMs(), "direct call, store children taken out"},
		{"store.stage", put.childMs("store.stage"), ""},
		{"store.commit", put.childMs("store.commit"), ""},
	})
	writeBudget(&sb, "GET", probed[opGet], m, apiGet, coreGet, []budgetLine{
		{"encoding.decode", get.childMs("encoding.decode"), ""},
		{"tstamp.verify", missFrac * tsVerify, fmt.Sprintf("%.3f ms on each of the %.0f%% of GETs that miss the cache", tsVerify, 100*missFrac)},
		{"cluster (self)", missFrac * fetch.selfMs(), "direct call, store children taken out"},
		{"store.get", get.childMs("store.get"), "summed over the parallel probes"},
	})
	run.budget = sb.String()
	if err := writeSpans(filepath.Join(outDir, "trace-"+cfg.w.name+".jsonl"), rec.spans); err != nil {
		return nil, err
	}
	return run, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// directCalls times the kernels — rs, gf256 — and the cluster over the
// decorated store, each at the shapes this workload gives them: its
// object size, cut into the vault's chunks, each chunk one RS 10+4
// stripe.
func (t *tracer) directCalls() error {
	c, rec := t.b.svc.cluster, t.rec
	rec.on.Store(true)
	defer rec.on.Store(false)
	reps := 24
	if t.b.cfg.w.objSize > core.DefaultChunkSize {
		reps = 8
	}
	payload := t.payload

	// One stripe is one chunk of the object.
	var stripes [][][]byte
	code, err := rs.Cached(rsData, rsTotal-rsData, 0)
	if err != nil {
		return err
	}
	for off := 0; off < len(payload); off += core.DefaultChunkSize {
		chunk := payload[off:min(off+core.DefaultChunkSize, len(payload))]
		var shards [][]byte
		for start := time.Now(); shards == nil || time.Since(start) < kernelTime; {
			if _, err := rec.root("rs.encode", int64(len(chunk)), func() (err error) {
				shards, err = code.Encode(chunk)
				return err
			}); err != nil {
				return err
			}
		}
		stripes = append(stripes, shards)
	}
	src, dst := stripes[0][0], make([]byte, len(stripes[0][0]))
	for start := time.Now(); time.Since(start) < kernelTime; {
		rec.root("gf256.mul", int64(len(src)), func() error { gf256.MulSliceTable(0x53, src, dst); return nil })
		rec.root("gf256.xor", int64(len(src)), func() error { gf256.AddSlice(src, dst); return nil })
	}

	// The cluster calls the vault makes for one object: stage every shard
	// of every stripe under one token, commit once; then fetch each stripe
	// back. The objects are deleted again, so StoredBytes is unchanged.
	ctx := context.Background()
	for i := 0; i < reps; i++ {
		obj, token := fmt.Sprintf("direct/%d", i), fmt.Sprintf("direct-stage-%d", i)
		if _, err := rec.root("cluster.stage_commit", int64(len(payload)), func() error {
			for ci, shards := range stripes {
				for node, sh := range shards {
					if err := c.PutStagedCtx(ctx, node, token, cluster.ShardKey{Object: obj, Index: node, Chunk: ci}, sh); err != nil {
						return err
					}
				}
			}
			_, err := c.CommitStage(token)
			return err
		}); err != nil {
			return err
		}
		if _, err := rec.root("cluster.fetch_stripe", int64(len(payload)), func() error {
			for ci := range stripes {
				res := c.FetchChunkStripeCtx(ctx, obj, ci, rsTotal, rsData, cluster.DefaultRetry, nil)
				if res.Fetched < rsData {
					return fmt.Errorf("fetched %d of %d shards of %s", res.Fetched, rsData, obj)
				}
			}
			return nil
		}); err != nil {
			return err
		}
		rec.on.Store(false)
		for ci, shards := range stripes {
			for node := range shards {
				if err := c.Delete(node, cluster.ShardKey{Object: obj, Index: node, Chunk: ci}); err != nil {
					return err
				}
			}
		}
		rec.on.Store(true)
	}
	return nil
}

// rootAgg sums the root spans of one name and the children they caused.
// The zero value is "no such span": every figure of it reads 0.
type rootAgg struct {
	n      int
	durMs  []float64
	durNs  int64
	bytes  int64
	selfNs int64 // duration not covered by any child, summed
	// bare roots had no child at all: for a GET, a read-cache hit.
	bare   int
	bareNs int64
	child  map[string]childAgg
}

type childAgg struct {
	n     int
	durNs int64
	bytes int64
}

func (c childAgg) plus(d childAgg) childAgg {
	return childAgg{c.n + d.n, c.durNs + d.durNs, c.bytes + d.bytes}
}

// aggs are the root aggregates by name; of never returns nil.
type aggs map[string]*rootAgg

func (as aggs) of(name string) *rootAgg {
	if a := as[name]; a != nil {
		return a
	}
	return &rootAgg{}
}

// aggregate groups spans by root name. A root's self time is its
// duration minus the union of its children's intervals, so children that
// overlap (the chunk pipeline encodes one chunk while it stages the
// previous one; a stripe fetch probes nodes in parallel) count once.
func aggregate(spans []span) aggs {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	as := aggs{}
	for _, s := range spans {
		if s.Parent != 0 {
			continue
		}
		a := as[s.Name]
		if a == nil {
			a = &rootAgg{child: map[string]childAgg{}}
			as[s.Name] = a
		}
		dur := s.End - s.Start
		a.n++
		a.durMs = append(a.durMs, s.durMs())
		a.durNs += dur
		a.bytes += s.Bytes
		kids := children[s.ID]
		if len(kids) == 0 {
			a.bare++
			a.bareNs += dur
		}
		ivs := make([]interval, len(kids))
		for i, k := range kids {
			ivs[i] = interval{k.Start, k.End}
			a.child[k.Name] = a.child[k.Name].plus(childAgg{1, k.End - k.Start, k.Bytes})
		}
		a.selfNs += dur - unionNs(ivs, s.Start, s.End)
	}
	return as
}

// merged adds two aggregates' counts, times and children, for figures
// per PUT or per GET that do not depend on whether the op came over HTTP
// or in-process.
func merged(a, b *rootAgg) *rootAgg {
	out := &rootAgg{child: map[string]childAgg{}}
	for _, x := range []*rootAgg{a, b} {
		out.n += x.n
		out.durNs += x.durNs
		out.bytes += x.bytes
		out.selfNs += x.selfNs
		for name, c := range x.child {
			out.child[name] = out.child[name].plus(c)
		}
	}
	return out
}

func (a *rootAgg) meanMs() float64 { return ratio(float64(a.durNs)/1e6, float64(a.n)) }
func (a *rootAgg) selfMs() float64 { return ratio(float64(a.selfNs)/1e6, float64(a.n)) }
func (a *rootAgg) bareMs() float64 { return ratio(float64(a.bareNs)/1e6, float64(a.bare)) }
func (a *rootAgg) mbPerS() float64 { return ratio(float64(a.bytes)/1e6, float64(a.durNs)/1e9) }

// childFrac is the share of roots that caused at least one child.
func (a *rootAgg) childFrac() float64 { return ratio(float64(a.n-a.bare), float64(a.n)) }

func (a *rootAgg) p99() float64 {
	if a.n == 0 {
		return 0
	}
	s := append([]float64(nil), a.durMs...)
	sort.Float64s(s)
	return percentile(s, 99)
}

// childMs is the named child's busy time per root, in ms.
func (a *rootAgg) childMs(name string) float64 {
	return ratio(float64(a.child[name].durNs)/1e6, float64(a.n))
}

func (a *rootAgg) childCalls(name string) float64 {
	return ratio(float64(a.child[name].n), float64(a.n))
}

func (a *rootAgg) childMBPerS(name string) float64 {
	return ratio(float64(a.child[name].bytes)/1e6, float64(a.child[name].durNs)/1e9)
}

type budgetLine struct {
	name string
	ms   float64
	note string
}

// writeBudget prints one op's layer budget: the client span, what the
// api layer adds over the in-process call, and the in-process call split
// into its children, the residual first. Children that ran concurrently
// sum to more than the span they ran in; the overlap line says by how
// much.
func writeBudget(sb *strings.Builder, opName string, probe bool, m map[string]metric, api, inproc *rootAgg, children []budgetLine) {
	key := strings.ToLower(opName)
	total := m["api."+key+"_ms"].Value
	from := "the workload's own ops"
	if probe {
		from = fmt.Sprintf("a probe of %d ops; the workload issues no %s", probeOps, opName)
	}
	fmt.Fprintf(sb, "%s layer budget, ms per op and share of the client span (%d api and %d core spans from %s)\n",
		opName, api.n, inproc.n, from)
	line := func(indent int, name string, v float64, note string) {
		fmt.Fprintf(sb, "  %-28s %9.3f  %5.1f%%  %s\n", strings.Repeat("  ", indent)+name, v, 100*ratio(v, total), note)
	}
	line(0, "api."+key, total, "")
	line(1, "api.self", m["api.self_"+key+"_ms"].Value, "what api adds to the in-process call (both net of their children)")
	line(1, "core."+key, m["core."+key+"_ms"].Value, "")
	line(2, "core.self", m["core.self_"+key+"_ms"].Value, "RESIDUAL: time in core no child explains")
	sum := m["core.self_"+key+"_ms"].Value
	for _, c := range children {
		line(2, c.name, c.ms, c.note)
		sum += c.ms
	}
	if overlap := sum - m["core."+key+"_ms"].Value; overlap > 0.0005 {
		line(2, "(overlap)", -overlap, "children that ran at the same time")
	}
}

// writeSpans writes the spans, one JSON object a line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
