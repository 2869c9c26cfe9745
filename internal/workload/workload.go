// Package workload generates synthetic archival workloads for the
// root-level workload benchmarks (workload_bench_test.go): object-size
// mixes and ingest/read traces modelled on
// the archival-storage characterisation literature the paper cites (the
// CERN EOS analysis, HPSS profiling) — a heavy-tailed size distribution
// dominated by large sequential objects, write-once read-rarely access,
// and bursty recall.
//
// Everything is deterministic under a seed so experiment runs are
// reproducible, and sizes are generated without holding object payloads
// in memory (payloads are produced on demand from the seed).
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// ErrBadParams reports invalid generator parameters.
var ErrBadParams = errors.New("workload: invalid parameters")

// SizeClass is one component of the object-size mixture.
type SizeClass struct {
	Name string
	// Weight is the relative frequency of the class.
	Weight float64
	// MedianBytes and Sigma parameterise a log-normal size distribution.
	MedianBytes float64
	Sigma       float64
}

// ArchivalMix is a three-class mixture calibrated to archival-system
// characterisations: mostly metadata-ish small files by count, bytes
// dominated by large scientific/media objects.
func ArchivalMix() []SizeClass {
	return []SizeClass{
		{Name: "small", Weight: 0.55, MedianBytes: 64 << 10, Sigma: 1.2},
		{Name: "medium", Weight: 0.35, MedianBytes: 8 << 20, Sigma: 1.0},
		{Name: "large", Weight: 0.10, MedianBytes: 512 << 20, Sigma: 0.8},
	}
}

// Object is one generated archival object descriptor.
type Object struct {
	ID    string
	Class string
	Size  int64
}

// Generator produces a deterministic object stream. It is safe for
// concurrent use: the rng is locally seeded (never the shared math/rand
// global source, whose cross-package interleaving would destroy seed
// reproducibility) and mu guards it together with the object counter.
// The stream order is deterministic for a fixed call sequence;
// concurrent callers partition it operation-by-operation.
type Generator struct {
	mu      sync.Mutex
	rng     *rand.Rand
	classes []SizeClass
	cum     []float64
	next    int
	// MinSize/MaxSize clamp generated sizes.
	MinSize, MaxSize int64
}

// NewGenerator builds a generator over the size mixture with the given
// seed. Weights must be positive.
func NewGenerator(classes []SizeClass, seed int64) (*Generator, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("%w: no classes", ErrBadParams)
	}
	total := 0.0
	for _, c := range classes {
		if c.Weight <= 0 || c.MedianBytes <= 0 || c.Sigma <= 0 {
			return nil, fmt.Errorf("%w: class %q", ErrBadParams, c.Name)
		}
		total += c.Weight
	}
	cum := make([]float64, len(classes))
	acc := 0.0
	for i, c := range classes {
		acc += c.Weight / total
		cum[i] = acc
	}
	return &Generator{
		rng:     rand.New(rand.NewSource(seed)),
		classes: classes,
		cum:     cum,
		MinSize: 1,
		MaxSize: 16 << 30,
	}, nil
}

// Next returns the next object descriptor.
func (g *Generator) Next() Object {
	g.mu.Lock()
	defer g.mu.Unlock()
	u := g.rng.Float64()
	idx := len(g.classes) - 1
	for i, c := range g.cum {
		if u <= c {
			idx = i
			break
		}
	}
	cl := g.classes[idx]
	// Log-normal: size = median * exp(sigma * N(0,1)).
	size := int64(cl.MedianBytes * math.Exp(cl.Sigma*g.rng.NormFloat64()))
	if size < g.MinSize {
		size = g.MinSize
	}
	if size > g.MaxSize {
		size = g.MaxSize
	}
	g.next++
	return Object{
		ID:    fmt.Sprintf("obj-%08d", g.next),
		Class: cl.Name,
		Size:  size,
	}
}

// Payload materialises a deterministic pseudo-random payload for an
// object, capped at maxBytes (simulators rarely need whole large
// objects). The bytes depend only on the object ID hash and the
// generator's seed lineage, so repeated runs agree.
func (g *Generator) Payload(o Object, maxBytes int) []byte {
	n := int(o.Size)
	if n > maxBytes {
		n = maxBytes
	}
	r := rand.New(rand.NewSource(int64(hashString(o.ID))))
	buf := make([]byte, n)
	r.Read(buf)
	return buf
}

func hashString(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Trace summarises a generated batch.
type Trace struct {
	Objects    []Object
	TotalBytes int64
	ByClass    map[string]int
}

// Batch generates count objects and their summary.
func (g *Generator) Batch(count int) Trace {
	tr := Trace{ByClass: make(map[string]int)}
	for i := 0; i < count; i++ {
		o := g.Next()
		tr.Objects = append(tr.Objects, o)
		tr.TotalBytes += o.Size
		tr.ByClass[o.Class]++
	}
	return tr
}

// RecallPattern models read access: archival recall is rare and bursty.
// Given a batch, it returns the indices read during a recall event:
// a contiguous run (project retrieval) starting at a random offset,
// covering frac of the batch.
func (g *Generator) RecallPattern(batchLen int, frac float64) ([]int, error) {
	if frac <= 0 || frac > 1 || batchLen <= 0 {
		return nil, fmt.Errorf("%w: frac=%v len=%d", ErrBadParams, frac, batchLen)
	}
	n := int(float64(batchLen) * frac)
	if n < 1 {
		n = 1
	}
	g.mu.Lock()
	start := g.rng.Intn(batchLen)
	g.mu.Unlock()
	out := make([]int, n)
	for i := range out {
		out[i] = (start + i) % batchLen
	}
	return out, nil
}
