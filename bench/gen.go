package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"securearchive/internal/store"
)

type opKind uint8

const (
	opPut opKind = iota
	opGet
	opDelete
	numKinds
)

var kindNames = [numKinds]string{"put", "get", "delete"}

// op is one client call. The payload of an object is a function of the
// seed and the id alone (fillPayload), so a GET is checked without the
// benchmark keeping a copy of anything it wrote.
type op struct {
	kind opKind
	id   string
}

// workload is one traffic mix. Each is run against a fresh service.
type workload struct {
	name string
	// backend is the store the service opens: disk with fsync at commit,
	// or mem.
	backend string
	objSize int
	// preload is the number of objects archived before the window opens,
	// named p/0 … p/<preload-1>; GETs draw from them.
	preload int
	// putShare is the probability that an op is a PUT of a new object;
	// the rest are GETs of preloaded objects.
	putShare float64
	// skew is the zipf exponent of the GET key choice; 0 is uniform.
	skew float64
	// cycle makes the stream PUT a new object, GET it back and DELETE
	// it, over and over, instead of drawing from putShare.
	cycle bool
}

const smallObject = 16 << 10

// The pinned workloads; bench/README.md says why each is here and which
// layer it loads.
var workloads = []*workload{
	{name: "ingest_small", backend: store.BackendDisk, objSize: smallObject, putShare: 1},
	{name: "recall_cold", backend: store.BackendDisk, objSize: smallObject, preload: 2048},
	{name: "recall_hot", backend: store.BackendDisk, objSize: smallObject, preload: 2048, putShare: 0.1, skew: 1.1},
	// mem: diskstore never reclaims segments (ROADMAP item 6), so a
	// window of 4 MiB PUT/DELETE cycles on disk would write gigabytes.
	{name: "bulk_stream", backend: store.BackendMem, objSize: 4 << 20, cycle: true},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// gen is one client's op stream. The same (workload, seed, worker,
// preload) always yields the same ops; workers draw from disjoint id
// spaces, so no two ever PUT the same object.
type gen struct {
	w       *workload
	preload int
	worker  int
	rng     *rand.Rand
	zipf    *rand.Zipf
	n       int    // new objects named so far
	phase   int    // cycle position: 0 put, 1 get, 2 delete
	cur     string // the cycle's current object
}

func newGen(w *workload, seed int64, worker, preload int) *gen {
	g := &gen{w: w, preload: preload, worker: worker}
	g.rng = rand.New(rand.NewSource(seed*1000003 + int64(worker)))
	if w.skew > 0 && preload > 0 {
		g.zipf = rand.NewZipf(g.rng, w.skew, 1, uint64(preload-1))
	}
	return g
}

func (g *gen) newID() string {
	g.n++
	return fmt.Sprintf("w/%d/%d", g.worker, g.n)
}

func preloadID(k int) string { return fmt.Sprintf("p/%d", k) }

func (g *gen) next() op {
	if g.w.cycle {
		phase := g.phase
		g.phase = (g.phase + 1) % 3
		if phase == 0 {
			g.cur = g.newID()
		}
		return op{kind: opKind(phase), id: g.cur}
	}
	if g.rng.Float64() < g.w.putShare {
		return op{kind: opPut, id: g.newID()}
	}
	if g.zipf != nil {
		return op{kind: opGet, id: preloadID(int(g.zipf.Uint64()))}
	}
	return op{kind: opGet, id: preloadID(g.rng.Intn(g.preload))}
}

// atBoundary reports whether the stream may stop here without leaving a
// half-finished cycle (an object PUT but not yet DELETEd) behind.
func (g *gen) atBoundary() bool { return g.phase == 0 }

// fillPayload writes the object's bytes: an xorshift64 stream keyed by
// the seed and the id.
func fillPayload(buf []byte, seed int64, id string) {
	h := fnv.New64a()
	h.Write([]byte(id))
	x := h.Sum64() ^ uint64(seed)*0x9E3779B97F4A7C15
	if x == 0 {
		x = 1
	}
	var last [8]byte
	for i := 0; i < len(buf); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if i+8 <= len(buf) {
			binary.LittleEndian.PutUint64(buf[i:], x)
		} else {
			binary.LittleEndian.PutUint64(last[:], x)
			copy(buf[i:], last[:])
		}
	}
}
