// fault-injection walks the vault's fault-tolerance layer end to end:
// a deterministic FaultPlan turns the 8-node cluster hostile (outages,
// transient errors, bit rot), and the vault answers with degraded
// k-of-n reads, atomic stage-then-commit writes that roll back cleanly
// when a node dies mid-renewal, and a Scrub pass that finds and repairs
// the damage once the nodes return. This is §3.3's availability story:
// an archive must outlive its own substrate.
//
//	go run ./examples/fault-injection
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"securearchive/internal/cluster"
	"securearchive/internal/core"
	"securearchive/internal/obs"
	"securearchive/internal/obs/trace"
)

func main() {
	const n, t = 8, 4
	ctx := context.Background()
	c := cluster.New(n, nil)
	// Hierarchical tracing on: every vault op below records a span tree
	// (probes, retries, decode, verify), and the epilogue prints the
	// slowest one — the request that ate the most backoff.
	tracer := trace.Default()
	tracer.SetEnabled(true)
	v, err := core.NewVault(c, core.SecretSharing{T: t, N: n})
	if err != nil {
		log.Fatal(err)
	}
	data := []byte("census microdata, embargoed 72 years — readable in 2096")
	if err := v.Put(ctx, "census", data); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored %d bytes as %d Shamir shares (any %d reconstruct)\n\n", len(data), n, t)

	// Act 1: degraded reads. n−t nodes go dark — three lose their disks
	// outright, one keeps its share through the blackout — and the
	// survivors fail 30% of operations transiently. The vault walks the
	// nodes, retries transients with backoff, fans out when a probe
	// stalls, and stops at t shares.
	fmt.Printf("--- act 1: %d/%d nodes offline (3 disks lost), survivors 30%% flaky ---\n", n-t, n)
	plan := &cluster.FaultPlan{
		Seed:    2026,
		Default: cluster.NodeFaults{TransientProb: 0.3},
		Nodes:   map[int]cluster.NodeFaults{},
	}
	for i := 0; i < n-t; i++ {
		plan.Nodes[i] = cluster.NodeFaults{Offline: []cluster.Window{{From: 0, To: 100}}}
		if i < 3 {
			c.Delete(i, cluster.ShardKey{Object: "census", Index: i})
		}
	}
	c.SetFaultPlan(plan)
	got, err := v.Get(ctx, "census")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("degraded Get: %d bytes, intact=%v\n\n", len(got), bytes.Equal(got, data))

	// Act 2: atomic renewal. Proactive share renewal must replace all n
	// shares or none — a renewal that stops halfway leaves a mixed-epoch
	// stripe that can never reconstruct. With nodes still down, the
	// staged writes cannot all land, so the whole renewal rolls back.
	fmt.Println("--- act 2: share renewal attempted while nodes are down ---")
	before := c.ObjectBytes("census")
	if err := v.RenewShares(ctx, "census"); err != nil {
		fmt.Printf("renewal refused: %v\n", err)
	}
	fmt.Printf("rolled back: stored bytes %d → %d, staged leftovers: %d\n", before, c.ObjectBytes("census"), c.StagedCount())
	if got, err := v.Get(ctx, "census"); err != nil || !bytes.Equal(got, data) {
		log.Fatalf("old stripe damaged by failed renewal: %v", err)
	}
	fmt.Print("old shares untouched — Get still returns the original\n\n")

	// Act 3: scrub and repair. The nodes come back (empty) and one
	// survivor develops bit rot. Scrub localises both kinds of damage
	// with per-shard digests and rebuilds the stripe through the same
	// atomic write path; the rebuild re-randomises every share.
	fmt.Println("--- act 3: nodes return empty, node 5 serves rotted bytes; Scrub repairs ---")
	c.SetFaultPlan(&cluster.FaultPlan{Seed: 7, Nodes: map[int]cluster.NodeFaults{
		5: {CorruptProb: 1.0},
	}})
	_, _ = c.GetCtx(ctx, 5, cluster.ShardKey{Object: "census", Index: 5}) // one rotted read makes the rot persistent
	c.SetFaultPlan(nil)
	rep, err := v.Scrub(ctx, "census")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scrub: healthy=%v missing=%v corrupt=%v repaired=%v\n", rep.Healthy, rep.Missing, rep.Corrupt, rep.Repaired)
	rep, err = v.Scrub(ctx, "census")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-scrub: clean=%v — ", rep.Clean())
	if got, err := v.Get(ctx, "census"); err == nil && bytes.Equal(got, data) {
		fmt.Println("full health restored")
	} else {
		log.Fatalf("repair failed: %v", err)
	}

	// Renewal works again now that every node is back.
	if err := v.RenewShares(ctx, "census"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("renewal succeeds on the healed cluster")

	// Epilogue: the whole story is visible in the metrics registry the
	// vault and cluster recorded into along the way — retries, discarded
	// shards with per-node attribution, degraded reads, scrub repairs.
	// A per-node family's total is the sum of its series.
	snap := obs.Default().Snapshot()
	fmt.Println("\n--- telemetry of the run (obs.Default().Snapshot()) ---")
	for _, name := range []string{"cluster.retry", "cluster.probe", "cluster.discard"} {
		fmt.Printf("%-32s %d\n", name+"{node=*}", snap.Sum(name))
	}
	for _, name := range []string{
		`cluster.discard{node="05"}`,
		"cluster.fetch.degraded",
		"cluster.stage.abort",
		"cluster.stage.commit",
		"vault.read.discarded",
		"vault.scrub.repairs",
	} {
		fmt.Printf("%-32s %d\n", name, snap.Counters[name])
	}
	if h, ok := snap.Histograms["vault.get.ok"]; ok {
		fmt.Printf("%-32s p50=%.0fµs p99=%.0fµs over %d reads\n", "vault.get.ok", h.P50/1e3, h.P99/1e3, h.Count)
	}

	// The aggregate says HOW MUCH was retried; the trace says WHERE. The
	// slowest read of the run is act 1's degraded Get — offline probes
	// failing fast, flaky survivors sleeping through backoff (the
	// backoff.slept events below) — rendered as a span timeline.
	var slowest *trace.Trace
	for _, tc := range tracer.Recent(0) {
		if tc.Root != "vault.get" {
			continue
		}
		if slowest == nil || tc.DurNs > slowest.DurNs {
			slowest = tc
		}
	}
	if slowest != nil {
		fmt.Printf("\n--- slowest read of the run (%d traces completed; trace.Timeline) ---\n", tracer.Completed())
		fmt.Print(trace.Timeline(slowest))
	}
}
