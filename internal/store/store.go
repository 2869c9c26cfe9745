// Package store defines the at-rest storage contract behind the
// cluster's nodes. The cluster simulates *placement* — which
// administratively independent provider holds which shard in which epoch
// — while a NodeStore holds the bytes themselves. Splitting the two lets
// the same cluster (and every fault plan, hammer and benchmark above it)
// run against interchangeable backends: the in-memory map store the
// simulation started with (memstore) or durable append-only segments
// with a write-ahead log whose stage/commit protocol survives kill -9
// (diskstore).
//
// The package holds only the shared types, the two interfaces, and the
// backend-selection Config; the implementations live in the memstore and
// diskstore subpackages so that importing the contract never drags in
// disk machinery.
package store

import "errors"

// ErrKeyTooLong is returned by Put and Stage when a backend
// cannot record the object id or stage token it was handed (the disk
// backend's log has length-prefixed, size-bounded records). Nothing has
// been written when it is returned.
var ErrKeyTooLong = errors.New("store: object id or stage token too long")

// ShardKey addresses one shard of one object version. The vault's
// writer splits objects into fixed-size chunks, each encoded as its own
// stripe, so a shard is addressed by (object, chunk, index); an object
// no larger than a chunk occupies chunk 0 only. The zero Chunk keeps
// every pre-chunking key (and persisted test fixture) valid.
type ShardKey struct {
	Object string // object identifier
	Index  int    // shard index within the chunk's encoding
	Chunk  int    // chunk ordinal within the object; 0 for unchunked
}

// Shard is the unit of storage: opaque bytes plus placement metadata.
type Shard struct {
	Key   ShardKey
	Epoch int // the epoch this shard version was written
	Data  []byte
}

// NodeStore is one node's shard storage. Implementations are safe for
// concurrent use and own their bytes: Put/Stage copy data in, Get and
// Snapshot return data the caller may keep (mutating it never reaches
// the store — except through Corrupt, which is how injected bit rot
// damages the bytes *at rest*).
//
// The staging area is the node-local half of the cluster's
// stage-then-commit protocol: Stage parks a shard under a stage token,
// invisible to Get, until the Store-level CommitStage promotes every
// shard of the token at once (or AbortStage drops them). Delete removes
// both the committed shard and any staged entry for the key — a deleted
// object must not leave a parked stage behind to leak bytes or block a
// later re-Put of the same key.
type NodeStore interface {
	// Put commits a shard directly, replacing any previous version of
	// the key. The shard's Epoch is stored as given. The cluster never
	// calls it (Stage then CommitStage is its one write path); it stays
	// while the benchmark's store decorator implements it.
	Put(sh Shard) error
	// Get returns the committed shard for the key. The second result is
	// false when the key is absent; the error reports storage failures
	// (I/O, post-crash use), never absence.
	Get(key ShardKey) (Shard, bool, error)
	// Delete removes the committed shard and any staged entry for the
	// key. Deleting an absent key is not an error.
	Delete(key ShardKey) error
	// Stage parks a shard under the stage token, invisible to Get.
	// Re-staging the same key under the same token overwrites.
	// Staging over a key held by a different token is the caller's
	// bug — implementations may overwrite; the cluster checks
	// StagedOwner first and refuses with its own error.
	Stage(stage string, sh Shard) error
	// StagedOwner returns the token holding a staged entry for the key,
	// if any.
	StagedOwner(key ShardKey) (string, bool)
	// StagedCount returns the number of shards parked in the staging
	// area.
	StagedCount() int
	// ShardLen returns the committed shard's byte length without copying
	// its data (fault injection sizes its bit flip from this).
	ShardLen(key ShardKey) (int, bool)
	// Corrupt flips one bit of the committed shard's bytes at rest —
	// persistent rot that a later read or scrub still sees. Returns
	// false when the key is absent or the shard is empty.
	Corrupt(key ShardKey, bit int) bool
	// Snapshot returns copies of all committed shards, in no particular
	// order.
	Snapshot() ([]Shard, error)
	// StoredBytes returns the bytes physically occupying the node:
	// committed shards plus any still parked in the staging area.
	StoredBytes() int64
	// ObjectBytes returns the bytes at rest attributable to one object,
	// committed and staged.
	ObjectBytes(object string) int64
}

// Store is a cluster-wide backend: a fixed set of per-node stores plus
// the stage-commit operations that must be atomic *across* nodes. A
// stage token typically covers one shard per node (a stripe, or every
// chunk stripe of one object); CommitStage promotes all of them as one
// decision — for the disk backend, one WAL record whose fsync is the
// commit point, so a crash at any instant yields either the whole
// stripe or none of it after recovery.
type Store interface {
	// Nodes returns the number of per-node stores.
	Nodes() int
	// Node returns the store for one node; id is in [0, Nodes()).
	Node(id int) NodeStore
	// CommitStage atomically promotes every shard staged under the
	// token, across all nodes, stamping each with the given epoch.
	// Returns the number of shards committed. A non-nil error means the
	// commit did NOT happen (nothing was promoted) — except after a
	// crash mid-commit, where recovery decides from the WAL.
	CommitStage(stage string, epoch int) (int, error)
	// AbortStage drops every shard staged under the token, across all
	// nodes. Returns the number of shards dropped.
	AbortStage(stage string) (int, error)
	// Close releases the backend's resources (file handles for disk
	// backends; a no-op for memory). The store must not be used after.
	Close() error
}

// Backend names for Config.
const (
	BackendMem  = "mem"
	BackendDisk = "disk"
)

// Config selects and parameterises a backend — the data half of the
// config/factory split. It is pure data (flag-friendly); the factory
// that turns it into a live Store lives with the implementations'
// importer (cluster.OpenStore), so this package stays dependency-free.
type Config struct {
	// Backend is BackendMem (the default when empty) or BackendDisk.
	Backend string
	// Dir is the disk backend's root directory (one subdirectory per
	// node plus the shared WAL). Required for BackendDisk.
	Dir string
	// Fsync is the disk backend's durability policy: "commit" (the
	// default — the segment files a commit record references are
	// fsynced, in parallel, before it is appended, and the record's
	// fsync is the commit point) or "never" (benchmark mode: no
	// durability across power loss, though the log still recovers from
	// process kill). Under "commit", a failed fsync fails that operation
	// and every later one: nothing retries it.
	Fsync string
	// MaxSegmentBytes caps each append-only segment file before the
	// writer rolls to a new one; 0 selects the disk backend's default.
	MaxSegmentBytes int64
}
