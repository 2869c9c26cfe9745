// Package cluster simulates the geo-distributed storage substrate that
// every system in the paper's Table 1 assumes: administratively
// independent nodes holding shards of archival objects, advancing through
// epochs, and subject to corruption and failure injection.
//
// The simulation is information-centric rather than network-centric: the
// paper's arguments are about which node holds which bytes in which
// epoch, not about TCP behaviour. Every transfer is still metered (bytes
// in/out per node and cluster-wide), because §3.2's case against
// re-encryption and share renewal is an aggregate-throughput argument and
// the numbers must come from somewhere measurable.
//
// Where the bytes rest is pluggable: the cluster owns placement, epochs,
// fault injection and accounting, and delegates at-rest storage to a
// store.Store — in-memory maps (memstore, the default) or durable
// append-only segments with a write-ahead log whose stage/commit protocol
// survives kill -9 (diskstore). See internal/store and DESIGN.md
// "Durability".
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"securearchive/internal/obs"
	"securearchive/internal/store"
	"securearchive/internal/store/diskstore"
	"securearchive/internal/store/memstore"
)

// Errors returned by this package.
var (
	ErrNodeDown     = errors.New("cluster: node offline")
	ErrNoSuchNode   = errors.New("cluster: no such node")
	ErrNoSuchShard  = errors.New("cluster: shard not found")
	ErrDuplicateKey = errors.New("cluster: shard already present")
	// ErrTransient is a retryable fault (timeout, throttle) injected by
	// the cluster's FaultPlan; see GetRetryCtx and PutStagedRetryCtx.
	ErrTransient = errors.New("cluster: transient I/O error")
)

// ShardKey and Shard are defined in internal/store (the at-rest storage
// contract); the aliases keep every existing call site — and the
// conceptual home of "a shard in the cluster" — in this package.
type (
	ShardKey = store.ShardKey
	Shard    = store.Shard
)

// Node is one administratively independent storage provider.
type Node struct {
	ID     int
	Region string
	Online bool

	// st holds the node's bytes at rest; see internal/store.
	st store.NodeStore

	// mu serialises availability checks and fault draws on the node's
	// data path (the store has its own locking underneath).
	mu sync.Mutex
	// faults and faultState drive fault injection; see fault.go.
	faults     *NodeFaults
	faultState uint64
}

// Cluster is a set of nodes sharing an epoch clock. The epoch and the
// traffic counters are atomics: the data path touches only the node
// being addressed (plus lock-free accounting), so operations against
// distinct nodes never serialise on cluster-wide state — the property
// the vault's striped locking relies on for concurrent staging. (The
// disk backend serialises on its shared log underneath; the contract
// here is still per-node.)
type Cluster struct {
	nodes   []*Node
	backend store.Store
	epoch   atomic.Int64

	// bytesMoved/puts/gets sum every shard transfer in either direction;
	// read them through TotalBytesMoved/Puts/Gets.
	bytesMoved atomic.Int64
	puts       atomic.Int64
	gets       atomic.Int64

	// metrics mirrors the accounting above into the obs registry; see
	// metrics.go and UseRegistry.
	metrics *clusterMetrics

	// hedgeAfter is the hedge deadline of a stripe read's probe
	// (hedgeDeadline; see probeStripe). A field only so that a test can
	// pin it; the read path never derives it from the metrics, so which
	// registry is attached does not change how a read behaves.
	hedgeAfter time.Duration
}

// TotalBytesMoved returns the bytes transferred in either direction
// across all nodes so far. Safe to call concurrently with traffic.
func (c *Cluster) TotalBytesMoved() int64 { return c.bytesMoved.Load() }

// Puts returns the number of shards staged so far.
func (c *Cluster) Puts() int { return int(c.puts.Load()) }

// Gets returns the number of shard reads so far.
func (c *Cluster) Gets() int { return int(c.gets.Load()) }

// DefaultRegions is a plausible geo-dispersal for examples and tests.
var DefaultRegions = []string{"us-east", "eu-west", "ap-south", "sa-east", "af-south", "au-sydney"}

// New creates a memory-backed cluster of n online nodes, assigning
// regions round-robin from the provided list (DefaultRegions when nil).
func New(n int, regions []string) *Cluster {
	return NewWithStore(memstore.New(n), regions)
}

// NewWithStore creates a cluster over an already-open backend, one node
// per backend node.
func NewWithStore(bk store.Store, regions []string) *Cluster {
	if len(regions) == 0 {
		regions = DefaultRegions
	}
	c := &Cluster{backend: bk, hedgeAfter: hedgeDeadline}
	for i := 0; i < bk.Nodes(); i++ {
		c.nodes = append(c.nodes, &Node{
			ID:     i,
			Region: regions[i%len(regions)],
			Online: true,
			st:     bk.Node(i),
		})
	}
	c.metrics = newClusterMetrics(obs.Default(), len(c.nodes))
	return c
}

// OpenStore is the backend factory: it turns the flag-friendly
// store.Config into a live store.Store for n nodes. It lives here — with
// the implementations' importer — so the store package itself stays free
// of disk machinery.
func OpenStore(cfg store.Config, n int) (store.Store, error) {
	switch cfg.Backend {
	case "", store.BackendMem:
		return memstore.New(n), nil
	case store.BackendDisk:
		if cfg.Dir == "" {
			return nil, errors.New("cluster: disk backend needs a directory")
		}
		return diskstore.Open(cfg.Dir, n,
			diskstore.WithFsync(cfg.Fsync),
			diskstore.WithMaxSegmentBytes(cfg.MaxSegmentBytes))
	default:
		return nil, fmt.Errorf("cluster: unknown store backend %q", cfg.Backend)
	}
}

// Open creates a cluster of n nodes over the backend cfg selects,
// replaying the disk backend's WAL if it points at an existing archive.
func Open(n int, regions []string, cfg store.Config) (*Cluster, error) {
	bk, err := OpenStore(cfg, n)
	if err != nil {
		return nil, err
	}
	return NewWithStore(bk, regions), nil
}

// Store exposes the underlying backend (tests reach crash injection and
// recovery reports through a type assertion on this).
func (c *Cluster) Store() store.Store { return c.backend }

// Close releases the backend (file handles for disk; no-op for memory).
func (c *Cluster) Close() error { return c.backend.Close() }

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// Epoch returns the current epoch.
func (c *Cluster) Epoch() int { return int(c.epoch.Load()) }

// AdvanceEpoch increments the epoch clock and returns the new epoch.
func (c *Cluster) AdvanceEpoch() int { return int(c.epoch.Add(1)) }

// Node returns the node with the given ID.
func (c *Cluster) Node(id int) (*Node, error) {
	if id < 0 || id >= len(c.nodes) {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchNode, id)
	}
	return c.nodes[id], nil
}

// SetOnline flips a node's availability (failure injection).
func (c *Cluster) SetOnline(id int, online bool) error {
	n, err := c.Node(id)
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.Online = online
	return nil
}

// GetCtx fetches a committed shard from a node. Its Data may be the
// store's own bytes: the caller must not modify it (store.NodeStore).
// The fault plan's injected latency selects on ctx: a cancelled caller
// stops waiting on a slow node immediately.
func (c *Cluster) GetCtx(ctx context.Context, nodeID int, key ShardKey) (sh Shard, err error) {
	defer c.metrics.get.observe(time.Now(), &err)
	n, err := c.Node(nodeID)
	if err != nil {
		return Shard{}, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.Online {
		return Shard{}, fmt.Errorf("%w: node %d", ErrNodeDown, nodeID)
	}
	if err := c.injectFault(ctx, n, true, key); err != nil {
		return Shard{}, err
	}
	sh, ok, err := n.st.Get(key)
	if err != nil {
		return Shard{}, fmt.Errorf("cluster: node %d: %w", nodeID, err)
	}
	if !ok {
		return Shard{}, fmt.Errorf("%w: node %d %v", ErrNoSuchShard, nodeID, key)
	}
	c.bytesMoved.Add(int64(len(sh.Data)))
	c.gets.Add(1)
	return sh, nil
}

// Delete removes a shard from a node — both the committed version and
// any entry still parked in the staging area, so a deleted object can
// never leak staged bytes or block a later re-stage of the same key with
// ErrDuplicateKey. Absence is not an error. Like CommitStage, delete is
// metadata-only with respect to the fault plan: no bytes move, so
// neither transient faults nor offline windows apply (the disk backend
// can still surface real I/O errors).
func (c *Cluster) Delete(nodeID int, key ShardKey) (err error) {
	defer c.metrics.del.observe(time.Now(), &err)
	n, err := c.Node(nodeID)
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.st.Delete(key)
}

// Snapshot returns copies of all shards currently stored on a node —
// what a corrupting adversary exfiltrates.
func (c *Cluster) Snapshot(nodeID int) ([]Shard, error) {
	n, err := c.Node(nodeID)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	out, err := n.st.Snapshot()
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Object != out[j].Key.Object {
			return out[i].Key.Object < out[j].Key.Object
		}
		if out[i].Key.Chunk != out[j].Key.Chunk {
			return out[i].Key.Chunk < out[j].Key.Chunk
		}
		return out[i].Key.Index < out[j].Key.Index
	})
	return out, nil
}

// StoredBytes returns the total bytes physically occupying nodes:
// committed shards plus any still sitting in staging areas.
func (c *Cluster) StoredBytes() int64 {
	var total int64
	for _, n := range c.nodes {
		total += n.st.StoredBytes()
	}
	return total
}

// ObjectBytes returns the bytes at rest attributable to one object,
// committed and staged.
func (c *Cluster) ObjectBytes(object string) int64 {
	var total int64
	for _, n := range c.nodes {
		total += n.st.ObjectBytes(object)
	}
	return total
}

// Regions returns the distinct regions hosting at least one node.
func (c *Cluster) Regions() []string {
	seen := map[string]bool{}
	var out []string
	for _, n := range c.nodes {
		if !seen[n.Region] {
			seen[n.Region] = true
			out = append(out, n.Region)
		}
	}
	sort.Strings(out)
	return out
}
