package cluster

import (
	"context"
	"fmt"
	"time"
)

// Staged writes: the cluster's one write path. A writer — the vault, or
// a Table 1 system — stages every shard of an object version under a
// stage token, then either commits the whole set or aborts, dropping the
// staged bytes. Commit atomicity is the backend's contract (one key swap
// under locks in memory; one fsynced WAL record on disk — see
// internal/store), so a crashed or failed multi-shard write never leaves
// a partial stripe behind: the live shard set always holds exactly one
// encoding of each object.

// PutStagedCtx writes a shard into the node's staging area under the
// stage token. It moves real bytes — the fault plan, availability check
// and traffic metering apply, and the fault plan's injected latency
// selects on ctx — but the shard stays invisible to GetCtx until
// CommitStage, the only way a shard becomes live. The store takes
// ownership of data: the caller must not modify it afterwards.
// Re-staging the same key under the same token overwrites (so
// transient-error retries are idempotent); staging a key already held by
// a different token returns ErrDuplicateKey, refusing to commit over a
// foreign stage.
func (c *Cluster) PutStagedCtx(ctx context.Context, nodeID int, stage string, key ShardKey, data []byte) (err error) {
	defer c.metrics.staged.observe(time.Now(), &err)
	n, err := c.Node(nodeID)
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.Online {
		return fmt.Errorf("%w: node %d", ErrNodeDown, nodeID)
	}
	if err := c.injectFault(ctx, n, false, key); err != nil {
		return err
	}
	if owner, ok := n.st.StagedOwner(key); ok && owner != stage {
		return fmt.Errorf("%w: node %d %v staged by %q", ErrDuplicateKey, nodeID, key, owner)
	}
	if err := n.st.Stage(stage, Shard{Key: key, Epoch: c.Epoch(), Data: data}); err != nil {
		return err
	}
	c.bytesMoved.Add(int64(len(data)))
	c.puts.Add(1)
	return nil
}

// PutStagedRetryCtx is PutStagedCtx retried on transient faults per pol,
// with each transient result attributed to cluster.retry{node}; see
// GetRetryCtx.
func (c *Cluster) PutStagedRetryCtx(ctx context.Context, nodeID int, stage string, key ShardKey, data []byte, pol RetryPolicy) error {
	return c.retryAt(ctx, nodeID, pol, func() error {
		return c.PutStagedCtx(ctx, nodeID, stage, key, data)
	})
}

// CommitStage atomically promotes every shard staged under the token
// into the live shard set, across all nodes, replacing any previous
// version of each key. Commit is metadata-only w.r.t. the fault plan —
// the bytes already moved at stage time — so it succeeds even for nodes
// that went offline after staging. Every shard in the stage is stamped
// with the epoch current at commit time: a committed stripe is never
// mixed-epoch, even when AdvanceEpoch races the staging writes. On the
// disk backend the commit record's fsync is the commit point, and an
// error (I/O failure, injected crash) means nothing was promoted —
// recovery at the next Open decides from the WAL. Returns the number of
// shards committed.
func (c *Cluster) CommitStage(stage string) (int, error) {
	c.metrics.commits.Inc()
	n, err := c.backend.CommitStage(stage, c.Epoch())
	if err != nil {
		return n, fmt.Errorf("cluster: commit stage %q: %w", stage, err)
	}
	return n, nil
}

// AbortStage drops every shard staged under the token, across all nodes.
// Metadata-only, like CommitStage. Returns the number of shards dropped.
func (c *Cluster) AbortStage(stage string) (int, error) {
	c.metrics.aborts.Inc()
	n, err := c.backend.AbortStage(stage)
	if err != nil {
		return n, fmt.Errorf("cluster: abort stage %q: %w", stage, err)
	}
	return n, nil
}

// StagedCount returns the number of shards currently parked in staging
// areas across the cluster (diagnostics: a nonzero steady-state value
// means a writer leaked a stage).
func (c *Cluster) StagedCount() int {
	total := 0
	for _, n := range c.nodes {
		total += n.st.StagedCount()
	}
	return total
}
