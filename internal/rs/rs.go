// Package rs implements Reed-Solomon erasure coding over GF(2^8).
//
// A Code with k data shards and m parity shards tolerates the loss of any
// m of the n = k+m shards. Encoding is systematic: the first k shards are
// the data itself, so reads that find all data shards intact need no
// decoding. The parity rows come from a Cauchy matrix, every square
// submatrix of which is invertible, guaranteeing the MDS property.
//
// This is the erasure-coding substrate the paper's Figure 1 places in the
// "low cost / low security" quadrant, and the dispersal layer of AONT-RS
// (Resch & Plank, FAST '11). Package shamir provides the non-systematic
// counterpart: per McEliece & Sarwate, Shamir secret sharing *is* a
// non-systematic [n, t] Reed-Solomon code with random high coefficients.
//
// The hot paths run on the gf256 bulk kernels: each Code caches a
// multiplication table per generator-matrix coefficient at construction,
// and Encode/Reconstruct split large stripes across goroutines by output
// row and byte range (see WithParallelism and chunkGrain). The §3.2
// throughput argument of the paper is measured against exactly this path.
package rs

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"securearchive/internal/bufpool"
	"securearchive/internal/gf256"
	"securearchive/internal/matrix"
	"securearchive/internal/parallel"
)

// Limits on code parameters. Evaluation points live in GF(256) \ {0}.
const (
	MaxShards = 255
)

// chunkGrain is the shard size from which encode and reconstruct fork
// workers, and the minimum byte range a worker takes; below it the work
// runs inline. Re-measured with the AVX2 kernels on the 2-vCPU box
// (BenchmarkRSEncodeParallel, 10+4, serial p1 vs forked p2, the grain
// forced down to 1 KiB in a scratch build so every size forks; ranges
// over three sessions): a 16 KiB stripe is 3.1 vs 7.1 µs and a 1 MiB
// stripe (105 KB shards) 154–217 vs 215–247 µs — forking loses; 2 MiB is
// 391–507 vs 342–420 µs, a wash; 4 MiB 863–1099 vs 513–785 µs (one
// session 925–960: the second vCPU is not always there), 16 MiB 4.9–5.4
// vs 2.2–2.5 ms. The crossover sits between 105 and 210 KB shards, so
// the vault's 1 MiB chunk stripes now encode inline (154–167 µs at this
// grain, 217–254 at the previous 64 KiB) and stripes from ~1.3 MiB up
// still fork.
const chunkGrain = 128 << 10

// Errors returned by this package.
var (
	ErrInvalidParams   = errors.New("rs: invalid code parameters")
	ErrTooFewShards    = errors.New("rs: too few shards to reconstruct")
	ErrShardCount      = errors.New("rs: wrong number of shards")
	ErrShardSize       = errors.New("rs: shards have inconsistent sizes")
	ErrEmptyData       = errors.New("rs: empty data")
	ErrInvalidDataSize = errors.New("rs: data size does not match shards")
)

// Code is an immutable [n, k] systematic Reed-Solomon erasure code.
// It is safe for concurrent use.
type Code struct {
	data   int // k
	parity int // m
	// gen is the full n-by-k systematic generator matrix: the top k rows
	// are the identity, the bottom m rows are the Cauchy parity rows.
	gen *matrix.Matrix
	// parityTabs[i][j] is the cached multiplication table for parity row
	// i, data column j — built once in New so repeated Encode calls never
	// re-derive coefficient tables.
	parityTabs [][]*[256]byte
	// par bounds the worker count for Encode/Reconstruct; 0 means
	// GOMAXPROCS.
	par int
}

// Option configures a Code.
type Option func(*Code)

// WithParallelism bounds the number of goroutines Encode, EncodeShards
// and Reconstruct may use. n <= 0 (the default) selects GOMAXPROCS; 1
// forces the serial path.
func WithParallelism(n int) Option {
	return func(c *Code) { c.par = n }
}

// New constructs a code with the given number of data and parity shards.
// data must be >= 1, parity >= 0, and data+parity <= MaxShards.
func New(data, parity int, opts ...Option) (*Code, error) {
	if data < 1 || parity < 0 || data+parity > MaxShards {
		return nil, fmt.Errorf("%w: data=%d parity=%d", ErrInvalidParams, data, parity)
	}
	n := data + parity
	gen := matrix.New(n, data)
	for i := 0; i < data; i++ {
		gen.Set(i, i, 1)
	}
	if parity > 0 {
		// Cauchy points: xs for parity rows, ys for data columns, disjoint.
		xs := make([]byte, parity)
		ys := make([]byte, data)
		for j := 0; j < data; j++ {
			ys[j] = byte(j)
		}
		for i := 0; i < parity; i++ {
			xs[i] = byte(data + i)
		}
		cauchy := matrix.Cauchy(xs, ys)
		for i := 0; i < parity; i++ {
			copy(gen.Row(data+i), cauchy.Row(i))
		}
	}
	c := &Code{data: data, parity: parity, gen: gen}
	c.parityTabs = make([][]*[256]byte, parity)
	for i := range c.parityTabs {
		c.parityTabs[i] = rowTables(gen.Row(data + i))
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// codeCache shares constructed Codes across the per-operation Encoding
// values in internal/core: building a Code prices a Cauchy matrix plus a
// table pointer per coefficient, which the seed paid on EVERY
// Encode/Decode call — a fixed tax that dominated small-object puts.
var codeCache sync.Map // cacheKey -> *Code

type cacheKey struct{ data, parity, par int }

// Cached returns a process-shared Code for the given shape and worker
// bound, constructing it at most once. Codes are immutable and safe for
// concurrent use, so sharing is free; par is part of the key because it
// is fixed at construction.
func Cached(data, parity, par int) (*Code, error) {
	key := cacheKey{data, parity, par}
	if v, ok := codeCache.Load(key); ok {
		return v.(*Code), nil
	}
	c, err := New(data, parity, WithParallelism(par))
	if err != nil {
		return nil, err
	}
	v, _ := codeCache.LoadOrStore(key, c)
	return v.(*Code), nil
}

// rowTables caches a gf256 multiplication table pointer per coefficient
// of one matrix row. The pointers alias the shared 64 KiB full table, so
// this costs one slice of pointers.
func rowTables(row []byte) []*[256]byte {
	t := make([]*[256]byte, len(row))
	for j, coeff := range row {
		t[j] = gf256.MulTable(coeff)
	}
	return t
}

// mulAcc accumulates dst ^= coeff·src with the 0/1 fast paths, using a
// cached table for the general case.
func mulAcc(coeff byte, tab *[256]byte, src, dst []byte) {
	switch coeff {
	case 0:
	case 1:
		gf256.AddSlice(src, dst)
	default:
		gf256.MulSliceWith(tab, src, dst)
	}
}

// mulAssign overwrites dst = coeff·src with the 0/1 fast paths.
func mulAssign(coeff byte, tab *[256]byte, src, dst []byte) {
	switch coeff {
	case 0:
		clear(dst)
	case 1:
		copy(dst, src)
	default:
		gf256.MulSliceAssignWith(tab, src, dst)
	}
}

// DataShards returns k, the number of data shards.
func (c *Code) DataShards() int { return c.data }

// TotalShards returns n = k + m.
func (c *Code) TotalShards() int { return c.data + c.parity }

// ShardSize returns the shard length used for a payload of dataLen bytes:
// ceil(dataLen / k).
func (c *Code) ShardSize(dataLen int) int {
	return (dataLen + c.data - 1) / c.data
}

// Split partitions data into exactly k equally sized shards without
// copying it: every shard that lies wholly inside data is a capped
// sub-slice of it (an append to one never reaches the next), and only a
// short last shard — with its zero padding — and any shard past the end
// of data are allocated. The shards alias data, so neither may be
// modified while the other is in use. The returned slice has room to
// append the m parity shards.
func (c *Code) Split(data []byte) ([][]byte, error) {
	if len(data) == 0 {
		return nil, ErrEmptyData
	}
	size := c.ShardSize(len(data))
	shards := make([][]byte, c.data, c.TotalShards())
	for i := range shards {
		lo, hi := i*size, (i+1)*size
		if hi <= len(data) {
			shards[i] = data[lo:hi:hi]
			continue
		}
		shards[i] = make([]byte, size)
		if lo < len(data) {
			copy(shards[i], data[lo:])
		}
	}
	return shards, nil
}

// Encode splits data into k shards, computes the m parity shards, and
// returns all n shards. The data shards alias data (see Split); only the
// parity and a padded last data shard are new memory. Use Join (with the
// original length) to recover the data after Reconstruct.
func (c *Code) Encode(data []byte) ([][]byte, error) {
	shards, err := c.Split(data)
	if err != nil {
		return nil, err
	}
	size := len(shards[0])
	for range c.parity {
		shards = append(shards, make([]byte, size))
	}
	if err := c.EncodeShards(shards); err != nil {
		return nil, err
	}
	return shards, nil
}

// EncodeShards computes parity in place: shards must hold n slices of equal
// length, the first k containing data; the last m are overwritten. The
// work is split across goroutines by parity row and byte range, bounded
// by the code's parallelism. Payloads below the parallel grain run fully
// inline — no goroutines, no closure allocation.
func (c *Code) EncodeShards(shards [][]byte) error {
	if err := c.checkShape(shards, true); err != nil {
		return err
	}
	if c.parity == 0 {
		return nil
	}
	size := len(shards[0])
	if size < chunkGrain || parallel.Workers(c.par) == 1 {
		for i := 0; i < c.parity; i++ {
			c.encodeRowRange(i, 0, size, shards)
		}
		return nil
	}
	c.forRowChunks(c.parity, size, func(i, lo, hi int) {
		c.encodeRowRange(i, lo, hi, shards)
	})
	return nil
}

// encodeRowRange computes parity row i over byte range [lo, hi).
func (c *Code) encodeRowRange(i, lo, hi int, shards [][]byte) {
	row := c.gen.Row(c.data + i)
	tabs := c.parityTabs[i]
	out := shards[c.data+i][lo:hi]
	mulAssign(row[0], tabs[0], shards[0][lo:hi], out)
	for j := 1; j < c.data; j++ {
		mulAcc(row[j], tabs[j], shards[j][lo:hi], out)
	}
}

// forRowChunks runs fn(row, lo, hi) over the product of `rows` output
// rows and byte-range chunks of [0, size), in parallel up to the code's
// worker bound; shards below the grain run inline, row by row. Chunk
// indices are row-major so one worker streams adjacent byte ranges of
// the same row.
func (c *Code) forRowChunks(rows, size int, fn func(row, lo, hi int)) {
	if size < chunkGrain {
		for row := 0; row < rows; row++ {
			fn(row, 0, size)
		}
		return
	}
	nchunks := min((size+chunkGrain-1)/chunkGrain, parallel.Workers(c.par))
	parallel.For(c.par, rows*nchunks, 1, func(jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			row, ck := j/nchunks, j%nchunks
			lo, hi := parallel.Span(size, nchunks, ck)
			fn(row, lo, hi)
		}
	})
}

// Verify recomputes parity from the data shards and reports whether it
// matches the provided parity shards. All n shards must be present.
func (c *Code) Verify(shards [][]byte) (bool, error) {
	if err := c.checkShape(shards, true); err != nil {
		return false, err
	}
	if c.parity == 0 {
		return true, nil
	}
	size := len(shards[0])
	// One pooled scratch buffer for all parity rows: the first column
	// overwrites it, so no per-row zeroing pass is needed (scrub loops
	// call Verify per stripe — unpooled scratch was measurable garbage).
	sb := bufpool.Get(size)
	defer sb.Release()
	scratch := sb.B
	for i := 0; i < c.parity; i++ {
		row := c.gen.Row(c.data + i)
		tabs := c.parityTabs[i]
		mulAssign(row[0], tabs[0], shards[0], scratch)
		for j := 1; j < c.data; j++ {
			mulAcc(row[j], tabs[j], shards[j], scratch)
		}
		if !bytes.Equal(scratch, shards[c.data+i]) {
			return false, nil
		}
	}
	return true, nil
}

// Reconstruct fills in missing (nil) data shards in place, which is all
// Join needs. Missing parity shards stay nil: no reader uses them, and a
// writer that wants the full stripe back (scrub repair) re-encodes it
// with EncodeShards. At least k shards must be present. Present shards
// are never modified; reconstructed shards are freshly allocated. With
// every data shard present — any read the probe wave answered in index
// order — this does no field arithmetic and allocates nothing. Recovery
// of multiple shards runs in parallel by output row and byte range.
func (c *Code) Reconstruct(shards [][]byte) error {
	if len(shards) != c.TotalShards() {
		return fmt.Errorf("%w: have %d, want %d", ErrShardCount, len(shards), c.TotalShards())
	}
	lost, size := 0, -1
	for i, s := range shards {
		if s == nil {
			if i < c.data {
				lost++
			}
			continue
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return ErrShardSize
		}
	}
	if lost == 0 {
		return nil
	}

	// Invert the generator rows of the first k present shards; row d of
	// the inverse rebuilds data shard d from them, and only the rows of
	// the lost shards are ever applied.
	rows := make([]int, 0, c.data)
	inputs := make([][]byte, 0, c.data)
	for i, s := range shards {
		if s != nil && len(rows) < c.data {
			rows = append(rows, i)
			inputs = append(inputs, s)
		}
	}
	if len(rows) < c.data {
		return fmt.Errorf("%w: have %d, need %d", ErrTooFewShards, len(rows), c.data)
	}
	dec, err := c.gen.SubMatrix(rows).Invert()
	if err != nil {
		// Cannot happen for an MDS generator; report rather than panic.
		return fmt.Errorf("rs: decode matrix inversion failed: %w", err)
	}
	type job struct {
		out  []byte
		row  []byte
		tabs []*[256]byte
	}
	jobs := make([]job, 0, lost)
	for d := 0; d < c.data; d++ {
		if shards[d] == nil {
			shards[d] = make([]byte, size)
			jobs = append(jobs, job{out: shards[d], row: dec.Row(d), tabs: rowTables(dec.Row(d))})
		}
	}
	c.forRowChunks(len(jobs), size, func(i, lo, hi int) {
		jb := jobs[i]
		out := jb.out[lo:hi]
		mulAssign(jb.row[0], jb.tabs[0], inputs[0][lo:hi], out)
		for j := 1; j < c.data; j++ {
			mulAcc(jb.row[j], jb.tabs[j], inputs[j][lo:hi], out)
		}
	})
	return nil
}

// Join reassembles the original payload of length dataLen from the k data
// shards (shards[0:k] must all be present, e.g. after Reconstruct).
func (c *Code) Join(shards [][]byte, dataLen int) ([]byte, error) {
	if len(shards) < c.data {
		return nil, fmt.Errorf("%w: have %d, want at least %d", ErrShardCount, len(shards), c.data)
	}
	if dataLen <= 0 {
		return nil, ErrEmptyData
	}
	size := c.ShardSize(dataLen)
	out := make([]byte, 0, dataLen)
	for i := 0; i < c.data && len(out) < dataLen; i++ {
		s := shards[i]
		if s == nil {
			return nil, fmt.Errorf("rs: data shard %d missing: %w", i, ErrTooFewShards)
		}
		if len(s) != size {
			return nil, fmt.Errorf("%w: shard %d has %d bytes, want %d", ErrInvalidDataSize, i, len(s), size)
		}
		take := min(size, dataLen-len(out))
		out = append(out, s[:take]...)
	}
	return out, nil
}

func (c *Code) checkShape(shards [][]byte, needAll bool) error {
	if len(shards) != c.TotalShards() {
		return fmt.Errorf("%w: have %d, want %d", ErrShardCount, len(shards), c.TotalShards())
	}
	size := -1
	for i, s := range shards {
		if s == nil {
			if needAll {
				return fmt.Errorf("%w: shard %d is nil", ErrShardCount, i)
			}
			continue
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return ErrShardSize
		}
	}
	return nil
}

// encodeShardsScalar is the seed implementation of EncodeShards on the
// branchy scalar gf256.MulSlice path, retained as the differential oracle
// for tests and the before/after benchmark baseline.
func (c *Code) encodeShardsScalar(shards [][]byte) error {
	if err := c.checkShape(shards, true); err != nil {
		return err
	}
	for i := 0; i < c.parity; i++ {
		row := c.gen.Row(c.data + i)
		out := shards[c.data+i]
		for j := range out {
			out[j] = 0
		}
		for j := 0; j < c.data; j++ {
			gf256.MulSlice(row[j], shards[j], out)
		}
	}
	return nil
}
