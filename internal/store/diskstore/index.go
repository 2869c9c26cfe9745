package diskstore

import "securearchive/internal/store"

// shardIndex is the store's in-memory index of committed shards, keyed
// by chunk stripe: object and chunk map to the shards of that stripe the
// nodes hold. One map slot and one copy of the key per stripe — not one
// per shard per node, fourteen for a small RS 10+4 object — is what
// keeps a stored object's resident cost near the size of its refs. A
// stripe's slice is searched linearly: it is as long as the stripe is
// wide.
type shardIndex map[stripeKey][]placed

type stripeKey struct {
	object string
	chunk  int
}

// placed is one shard of a stripe: the node holding it, the shard index
// it is stored under, and where its body lies.
type placed struct {
	node  uint16
	index uint32
	ref   shardRef
}

func stripeOf(key store.ShardKey) stripeKey { return stripeKey{key.Object, key.Chunk} }

// find returns the key's stripe and the shard's position in it, or -1.
func (x shardIndex) find(node int, key store.ShardKey) ([]placed, int) {
	stripe := x[stripeOf(key)]
	for i, p := range stripe {
		if int(p.node) == node && p.index == uint32(key.Index) {
			return stripe, i
		}
	}
	return stripe, -1
}

func (x shardIndex) get(node int, key store.ShardKey) (shardRef, bool) {
	if stripe, i := x.find(node, key); i >= 0 {
		return stripe[i].ref, true
	}
	return shardRef{}, false
}

// put records the shard, replacing the node's previous version of the
// key. width sizes a new stripe's slice: one shard per node.
func (x shardIndex) put(node int, key store.ShardKey, ref shardRef, width int) {
	stripe, i := x.find(node, key)
	if i >= 0 {
		stripe[i].ref = ref
		return
	}
	if stripe == nil {
		stripe = make([]placed, 0, width)
	}
	x[stripeOf(key)] = append(stripe, placed{uint16(node), uint32(key.Index), ref})
}

func (x shardIndex) del(node int, key store.ShardKey) {
	stripe, i := x.find(node, key)
	if i < 0 {
		return
	}
	last := len(stripe) - 1
	if last == 0 {
		delete(x, stripeOf(key))
		return
	}
	stripe[i] = stripe[last]
	x[stripeOf(key)] = stripe[:last]
}

// each calls fn for every shard the node holds, in no particular order.
func (x shardIndex) each(node int, fn func(store.ShardKey, shardRef)) {
	for k, stripe := range x {
		for _, p := range stripe {
			if int(p.node) == node {
				fn(store.ShardKey{Object: k.object, Index: int(p.index), Chunk: k.chunk}, p.ref)
			}
		}
	}
}
