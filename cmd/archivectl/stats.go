package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"securearchive/internal/cluster"
	"securearchive/internal/core"
	"securearchive/internal/obs"
)

// cmdStats exercises the instrumented vault I/O path on an in-memory
// cluster and dumps the observability registry as JSON — the quickest
// way to see what the obs layer records, and a smoke test that the
// counters move. With -offline the reads run degraded; with -transient
// the retry counters light up too.
func cmdStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	encName := fs.String("encoding", "shamir", "encoding scheme")
	n := fs.Int("n", 8, "total shards / nodes")
	t := fs.Int("t", 4, "threshold (privacy or decode, per encoding)")
	k := fs.Int("k", 3, "pack factor (packed encoding only)")
	objects := fs.Int("objects", 16, "objects to write and read back")
	size := fs.Int("size", 64<<10, "bytes per object")
	offline := fs.Int("offline", 0, "nodes taken offline before the reads")
	transient := fs.Float64("transient", 0, "per-op transient fault probability during reads")
	seed := fs.Int64("seed", 1, "payload and fault seed")
	fs.Parse(args)

	enc, err := buildEncoding(*encName, *n, *t, *k)
	if err != nil {
		fatal(err)
	}
	_, min := enc.Shards()
	if *offline > *n-min {
		fmt.Fprintf(os.Stderr, "archivectl: warning: %d offline nodes exceeds the %d the code tolerates; reads will degrade below threshold\n", *offline, *n-min)
	}
	c := cluster.New(*n, nil)
	v, err := core.NewVault(c, enc) // the library default: group.Default(), 2048-bit p
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(*seed))
	payload := make([]byte, *size)
	for i := 0; i < *objects; i++ {
		rng.Read(payload)
		if err := v.Put(ctx, fmt.Sprintf("obj-%04d", i), payload); err != nil {
			fatal(fmt.Errorf("put obj-%04d: %w", i, err))
		}
	}
	for i := 0; i < *offline; i++ {
		c.SetOnline(i, false)
	}
	if *transient > 0 {
		c.SetFaultPlan(&cluster.FaultPlan{Seed: *seed, Default: cluster.NodeFaults{TransientProb: *transient}})
	}
	degraded := 0
	for i := 0; i < *objects; i++ {
		if _, err := v.Get(ctx, fmt.Sprintf("obj-%04d", i)); err != nil {
			if !errors.Is(err, core.ErrDegraded) {
				fatal(fmt.Errorf("get obj-%04d: %w", i, err))
			}
			degraded++
		}
	}
	if dirty := v.DirtyObjects(); len(dirty) > 0 {
		fmt.Fprintf(os.Stderr, "archivectl: %d objects queued for scrub after discards\n", len(dirty))
	}
	if degraded > 0 {
		fmt.Fprintf(os.Stderr, "archivectl: %d/%d reads failed below the decode threshold\n", degraded, *objects)
	}
	os.Stdout.Write(obs.Default().Snapshot().JSON())
}
