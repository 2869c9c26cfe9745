package cluster

import (
	"fmt"
	"time"

	"securearchive/internal/obs"
)

// Metrics: every data-path operation on the cluster is recorded once, as
// its latency histogram pair (cluster.{get,delete,staged}.{ok,err});
// stage commits and aborts and the stripe reads that degraded or fell
// short are event counters; and probes, validation discards and
// transient retries are attributed per node. The metrics are resolved
// once (at New or UseRegistry) so the hot path pays only atomic adds.

// opHists is one operation's record: a latency histogram per outcome.
type opHists struct{ ok, err *obs.Histogram }

func newOpHists(reg *obs.Registry, name string) opHists {
	return opHists{
		ok:  reg.Histogram(name+".ok", obs.LatencyBuckets()),
		err: reg.Histogram(name+".err", obs.LatencyBuckets()),
	}
}

// observe records one operation that began at start and ended with
// *err; the pointer lets a deferred call read the named result.
func (h opHists) observe(start time.Time, err *error) {
	d := float64(time.Since(start).Nanoseconds())
	if *err != nil {
		h.err.Observe(d)
	} else {
		h.ok.Observe(d)
	}
}

type clusterMetrics struct {
	get, del, staged opHists
	commits, aborts  *obs.Counter

	// Stripe reads (FetchChunkStripeCtx) that routed around at least one
	// failure, and those that ended below the decoder's minimum.
	degraded, short *obs.Counter

	// Per-node dimension, pre-resolved into dense arrays so the stripe
	// fan-out pays one atomic add per touch: probes launched, shards
	// discarded by the caller's validator, and transient results, keyed
	// by {node}. Totals are the family sums.
	probeAt   []*obs.Counter
	discardAt []*obs.Counter
	retryAt   []*obs.Counter
}

func newClusterMetrics(reg *obs.Registry, nodes int) *clusterMetrics {
	m := &clusterMetrics{
		get:      newOpHists(reg, "cluster.get"),
		del:      newOpHists(reg, "cluster.delete"),
		staged:   newOpHists(reg, "cluster.staged"),
		commits:  reg.Counter("cluster.stage.commit"),
		aborts:   reg.Counter("cluster.stage.abort"),
		degraded: reg.Counter("cluster.fetch.degraded"),
		short:    reg.Counter("cluster.fetch.short"),
	}
	probeFam := reg.LabeledCounter("cluster.probe", "node")
	discardFam := reg.LabeledCounter("cluster.discard", "node")
	retryFam := reg.LabeledCounter("cluster.retry", "node")
	if nodes+1 > obs.DefaultMaxSeries {
		probeFam.SetMaxSeries(nodes + 1)
		discardFam.SetMaxSeries(nodes + 1)
		retryFam.SetMaxSeries(nodes + 1)
	}
	m.probeAt = make([]*obs.Counter, nodes)
	m.discardAt = make([]*obs.Counter, nodes)
	m.retryAt = make([]*obs.Counter, nodes)
	for i := 0; i < nodes; i++ {
		label := fmt.Sprintf("%02d", i)
		m.probeAt[i] = probeFam.With(label)
		m.discardAt[i] = discardFam.With(label)
		m.retryAt[i] = retryFam.With(label)
	}
	return m
}

// at attributes one event to a node of a per-node family.
func at(fam []*obs.Counter, node int) {
	if node >= 0 && node < len(fam) {
		fam[node].Inc()
	}
}

// UseRegistry re-resolves the cluster's metrics from the given registry
// (obs.Default() at New). Call it before traffic flows — typically right
// after New — so an isolated measurement run (papereval, tests) sees
// exactly its own numbers.
func (c *Cluster) UseRegistry(reg *obs.Registry) {
	c.metrics = newClusterMetrics(reg, len(c.nodes))
}
