package cluster

import (
	"context"
	"fmt"
	"time"
)

// Fault injection: a FaultPlan makes the cluster behave like the archives
// the paper argues about — nodes that throttle, drop requests, rot bits,
// and disappear for whole epochs. Each node carries its own splitmix64
// stream, seeded from the plan's Seed and the node ID and advanced once
// per probability draw under the node lock. What replays is each node's
// draw sequence given the operations that reach that node: the same
// operations against one node under the same plan see the same faults.
// An unfaulted stripe read (FetchChunkStripeCtx) draws only from the
// first want+2 nodes: its probes take nodes in index order, and no more
// than want+2 shards are ever landed or in flight. A seeded campaign as
// a whole still does not replay exactly. Timing decides whether a probe
// that starts late, or one that misses and moves on, finds the read
// already holding want shards, so which nodes consume a draw varies
// from run to run.
//
// Faults apply to the data path only (PutStagedCtx, GetCtx). CommitStage,
// AbortStage and Delete are metadata operations the plan never touches:
// the bytes have already moved by the time they run (the disk backend
// can still surface its own real I/O errors from them).

// Window is a half-open epoch interval [From, To).
type Window struct {
	From, To int
}

// Contains reports whether the epoch falls inside the window.
func (w Window) Contains(epoch int) bool { return epoch >= w.From && epoch < w.To }

// NodeFaults configures one node's failure behaviour.
type NodeFaults struct {
	// TransientProb is the per-operation probability of ErrTransient —
	// a timeout or throttle the caller may retry.
	TransientProb float64
	// FlakyProb replaces TransientProb while the epoch is inside a
	// Flaky window.
	FlakyProb float64
	// CorruptProb is the per-Get probability that one random bit of the
	// stored shard flips before it is served — persistent bit rot, so a
	// later Scrub still sees the damage.
	CorruptProb float64
	// Latency is added to every data-path operation on the node. The
	// node services requests serially while it sleeps, modelling a
	// single-spindle provider.
	Latency time.Duration
	// Offline lists epoch windows during which the node is hard-down
	// (ErrNodeDown, not retryable).
	Offline []Window
	// Flaky lists epoch windows during which FlakyProb applies.
	Flaky []Window
}

// FaultPlan assigns fault behaviour across the cluster.
type FaultPlan struct {
	// Seed determinises every probability draw.
	Seed int64
	// Default applies to nodes without an entry in Nodes.
	Default NodeFaults
	// Nodes overrides Default per node ID.
	Nodes map[int]NodeFaults
}

// SetFaultPlan installs (or, with nil, clears) the fault plan. Each
// node's random stream is re-seeded from plan.Seed and the node ID, so
// re-installing the same plan restarts every node's draw sequence.
func (c *Cluster) SetFaultPlan(p *FaultPlan) {
	for _, n := range c.nodes {
		n.mu.Lock()
		if p == nil {
			n.faults = nil
			n.faultState = 0
		} else {
			f := p.Default
			if nf, ok := p.Nodes[n.ID]; ok {
				f = nf
			}
			fc := f
			n.faults = &fc
			n.faultState = mix64(uint64(p.Seed) + 0x9E3779B97F4A7C15*uint64(n.ID+1))
		}
		n.mu.Unlock()
	}
}

// injectFault applies the node's fault plan to one data-path operation.
// Called with n.mu held (the epoch read is a lock-free atomic, so no
// cluster-level lock is taken under the node lock). For reads, key names
// the shard that bit rot would damage. The injected latency sleep
// selects on ctx.Done(): a cancelled caller stops paying for a slow
// node immediately (ErrRetryAborted wrapping the context error) instead
// of serving out the provider's simulated seek time.
func (c *Cluster) injectFault(ctx context.Context, n *Node, read bool, key ShardKey) error {
	f := n.faults
	if f == nil {
		return nil
	}
	if f.Latency > 0 {
		if ctx.Done() == nil {
			time.Sleep(f.Latency)
		} else {
			t := time.NewTimer(f.Latency)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return retryAbort(ctx)
			}
		}
	}
	epoch := c.Epoch()
	for _, w := range f.Offline {
		if w.Contains(epoch) {
			return fmt.Errorf("%w: node %d (offline window)", ErrNodeDown, n.ID)
		}
	}
	p := f.TransientProb
	for _, w := range f.Flaky {
		if w.Contains(epoch) {
			p = f.FlakyProb
		}
	}
	if p > 0 && n.roll() < p {
		return fmt.Errorf("%w: node %d", ErrTransient, n.ID)
	}
	if read && f.CorruptProb > 0 && n.roll() < f.CorruptProb {
		// The flip goes through the store's Corrupt so the damage lands in
		// the bytes *at rest* (a map entry or a segment file) — persistent
		// rot that a later read or scrub still sees, not a wire error.
		if ln, ok := n.st.ShardLen(key); ok && ln > 0 {
			n.st.Corrupt(key, n.rollN(ln*8))
		}
	}
	return nil
}

// roll advances the node's splitmix64 stream and returns a uniform
// float64 in [0, 1). Caller holds n.mu.
func (n *Node) roll() float64 {
	n.faultState += 0x9E3779B97F4A7C15
	return float64(mix64(n.faultState)>>11) / (1 << 53)
}

// rollN returns a uniform int in [0, bound). Caller holds n.mu.
func (n *Node) rollN(bound int) int {
	n.faultState += 0x9E3779B97F4A7C15
	return int(mix64(n.faultState) % uint64(bound))
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}
