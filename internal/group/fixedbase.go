package group

import (
	"math/big"
	"math/bits"
	"sync"
)

// Fixed-base exponentiation for the two generators (DESIGN.md,
// "Fixed-base exponentiation"). g and h never change for a Group, so
// ExpG/ExpH walk a precomputed Lim–Lee comb instead of running a generic
// square-and-multiply: the exponent is cut into combTeeth rows of
// blocks×cols bits, each row into blocks column blocks, and the table
// holds, per block, the product of the base's powers for every subset of
// rows. One pass down the cols columns then costs cols squarings and at
// most cols×blocks multiplications. math/big stays the arithmetic kernel;
// the saving is the multiplication count.

const (
	combTeeth = 8 // rows; 2^8 table entries per block

	// shortBits is the widest exponent the short comb serves. Digests
	// embedded as scalars are 224 bits (and the whole of Test()'s Z_q is
	// 255), where a full-width comb would cost more than it saves.
	shortBits = 256
)

// comb is one table: entry u of block j, words limbs wide, starts at
// slab[(j<<combTeeth|u)*words] and holds prod over set bits i of u of
// base^(2^((i*blocks+j)*cols)). One flat slab, not 2^8×blocks *big.Int,
// so the garbage collector sees a single pointer-free object.
type comb struct {
	blocks, cols, words int
	slab                []big.Word
}

// modMul is the arithmetic kernel, z = x·y mod p, with its product and
// quotient scratch reused across calls. z may alias x or y.
type modMul struct {
	p         *big.Int
	prod, quo big.Int
}

func (m *modMul) mul(z, x, y *big.Int) {
	m.prod.Mul(x, y)
	m.quo.QuoRem(&m.prod, m.p, z)
}

// newComb builds the table for exponents below 2^width from one squaring
// chain over the base.
func newComb(base, p *big.Int, width, blocks int) *comb {
	cols := (width + combTeeth*blocks - 1) / (combTeeth * blocks)
	c := &comb{blocks: blocks, cols: cols, words: len(p.Bits())}
	c.slab = make([]big.Word, (blocks<<combTeeth)*c.words)
	pow := new(big.Int).Set(base) // base^(2^(step*cols)) at each step
	mm := modMul{p: p}
	var val, ent big.Int
	for i := 0; i < combTeeth; i++ {
		for j := 0; j < blocks; j++ {
			// Entries with bit i as their top bit: the single power,
			// then that power times every entry over the lower rows.
			copy(c.entry(j, 1<<i), pow.Bits())
			for u := 1; u < 1<<i; u++ {
				mm.mul(&val, pow, ent.SetBits(c.entry(j, u)))
				copy(c.entry(j, 1<<i|u), val.Bits())
			}
			for k := 0; k < cols; k++ {
				mm.mul(pow, pow, pow)
			}
		}
	}
	return c
}

func (c *comb) entry(block, u int) []big.Word {
	off := (block<<combTeeth | u) * c.words
	return c.slab[off : off+c.words : off+c.words]
}

// exp returns base^e mod p for 0 <= e < 2^(combTeeth*blocks*cols).
func (c *comb) exp(e, p *big.Int) *big.Int {
	ew := e.Bits()
	rowBits := c.blocks * c.cols
	acc := big.NewInt(1)
	mm := modMul{p: p}
	var ent big.Int // read-only view of a table entry
	for k := c.cols - 1; k >= 0; k-- {
		mm.mul(acc, acc, acc)
		for j := 0; j < c.blocks; j++ {
			u := 0
			for i := combTeeth - 1; i >= 0; i-- {
				pos := uint(i*rowBits + j*c.cols + k)
				u <<= 1
				if w := pos / bits.UintSize; w < uint(len(ew)) {
					u |= int(ew[w]>>(pos%bits.UintSize)) & 1
				}
			}
			if u != 0 {
				mm.mul(acc, acc, ent.SetBits(c.entry(j, u)))
			}
		}
	}
	return acc
}

// fixedBase is the lazily built pair of combs for one generator: short
// serves exponents up to shortBits, full the rest of Z_q (nil when q
// itself fits the short comb).
type fixedBase struct {
	once        sync.Once
	short, full *comb
}

func (gr *Group) expFixed(fb *fixedBase, base, e *big.Int) *big.Int {
	fb.once.Do(func() {
		fb.short = newComb(base, gr.P, shortBits, 2)
		if n := gr.Q.BitLen(); n > shortBits {
			fb.full = newComb(base, gr.P, n, 4)
		}
	})
	// Both generators have order q, so any integer exponent may be
	// reduced into [0, q) first — the value big.Int.Exp yields for
	// negative and oversize exponents too.
	if e.Sign() < 0 || e.Cmp(gr.Q) >= 0 {
		e = new(big.Int).Mod(e, gr.Q)
	}
	if e.BitLen() <= shortBits {
		return fb.short.exp(e, gr.P)
	}
	return fb.full.exp(e, gr.P)
}
