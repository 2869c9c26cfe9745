// Package bufpool provides size-classed pooled byte buffers for the
// coding hot paths (rs, shamir, packed) and the vault's chunked write
// pipeline.
//
// The paper's §3.2 argument prices archival crypto maintenance off raw
// encode throughput; at that scale the allocator is a real tax — every
// per-object shard buffer is garbage the moment the cluster has copied
// it. The pool turns that steady-state churn into reuse: buffers live in
// power-of-two size classes backed by sync.Pool, and a warm encode loop
// allocates nothing (see the AllocsPerRun gates in internal/rs).
//
// Handles are pooled alongside their buffers: Get returns a *Buf whose
// backing array AND header object both come from (and return to) the
// pool, so a Get/Release cycle is allocation-free once warm. Plain
// []byte round trips through a sync.Pool would box the slice header on
// every Put — exactly the alloc the pool exists to kill.
package bufpool

import "sync"

// minClassBits/maxClassBits bound the pooled size classes: 512 B .. 8 MiB.
// Requests above the largest class are served by plain make and dropped
// on Release (huge one-off buffers should not pin pool memory); requests
// below the smallest round up to it.
const (
	minClassBits = 9  // 512 B
	maxClassBits = 23 // 8 MiB
	numClasses   = maxClassBits - minClassBits + 1
)

// Buf is a pooled byte buffer. B is sized to the Get request; its
// capacity is the size class. Release returns both the buffer and the
// handle to the pool; B must not be used afterwards.
type Buf struct {
	B []byte
	// class indexes the owning pool; -1 marks an overflow buffer that
	// Release drops instead of pooling.
	class int
}

// classes[i] pools buffers of capacity 1<<(minClassBits+i).
var classes [numClasses]sync.Pool

// classFor returns the smallest class index whose capacity holds n, or
// -1 when n exceeds the largest class.
func classFor(n int) int {
	for i := 0; i < numClasses; i++ {
		if n <= 1<<(minClassBits+i) {
			return i
		}
	}
	return -1
}

// Get returns a pooled buffer with len(B) == n. The contents are NOT
// zeroed — callers overwrite or clear as needed (coding paths overwrite
// every byte; Zero is available otherwise).
func Get(n int) *Buf {
	ci := classFor(n)
	if ci < 0 {
		return &Buf{B: make([]byte, n), class: -1}
	}
	if v := classes[ci].Get(); v != nil {
		b := v.(*Buf)
		b.B = b.B[:n]
		return b
	}
	return &Buf{B: make([]byte, n, 1<<(minClassBits+ci)), class: ci}
}

// Release returns the buffer to its size-class pool. Nil-safe. Oversize
// buffers (beyond the largest class) are dropped for the GC.
func (b *Buf) Release() {
	if b == nil || b.class < 0 {
		return
	}
	b.B = b.B[:cap(b.B)]
	classes[b.class].Put(b)
}

// Zero clears the buffer contents (for callers handing pooled buffers to
// code that assumes fresh zeroed memory, e.g. parity accumulation that
// skips the assign pass).
func (b *Buf) Zero() {
	clear(b.B)
}
