package group

import (
	"math/big"
	"math/bits"
	"sync"
)

// Fixed-base exponentiation for the two generators (DESIGN.md,
// "Fixed-base exponentiation"). g and h never change for a Group, so
// ExpG/ExpH/ExpGH walk precomputed Lim–Lee combs instead of running a
// generic square-and-multiply: the exponent is cut into combTeeth rows of
// combBlocks×combCols bits, each row into combBlocks column blocks, and
// the table holds, per block, the product of the base's powers for every
// subset of rows. One pass down the columns then costs combCols squarings,
// shared by every base in a product, and at most combCols×combBlocks
// multiplications per base. math/big stays the arithmetic kernel.

const (
	combTeeth  = 8 // rows; 2^8 table entries per block
	combBlocks = 2
	combCols   = 16

	// combBits is the widest exponent a comb serves: all of Z_q on the
	// production group (256 bits), digest scalars (224) included.
	combBits = combTeeth * combBlocks * combCols
)

// comb is one base's table: entry u of block j, words limbs wide, starts
// at slab[(j<<combTeeth|u)*words] and holds prod over set bits i of u of
// base^(2^((i*combBlocks+j)*combCols)). One flat slab, not 2^8×combBlocks
// *big.Int, so the garbage collector sees a single pointer-free object.
type comb struct {
	words int
	slab  []big.Word
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

// newComb builds the table from one squaring chain over the base.
func newComb(base, p *big.Int) *comb {
	c := &comb{words: len(p.Bits())}
	c.slab = make([]big.Word, (combBlocks<<combTeeth)*c.words)
	pow := new(big.Int).Set(base) // base^(2^(step*combCols)) at each step
	mm := modMul{p: p}
	var val, ent big.Int
	for i := 0; i < combTeeth; i++ {
		for j := 0; j < combBlocks; j++ {
			// Entries with bit i as their top bit: the single power,
			// then that power times every entry over the lower rows.
			copy(c.entry(j, 1<<i), pow.Bits())
			for u := 1; u < 1<<i; u++ {
				mm.mul(&val, pow, ent.SetBits(c.entry(j, u)))
				copy(c.entry(j, 1<<i|u), val.Bits())
			}
			for k := 0; k < combCols; k++ {
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

// combTerm is one factor base^e of a product: the base's table and the
// limbs of an exponent in [0, 2^combBits).
type combTerm struct {
	c *comb
	e []big.Word
}

// combProduct returns tail times the product of the terms, mod p: every
// term's columns are folded into one accumulator, so the squarings are
// paid once however many bases there are.
func combProduct(terms []combTerm, tail, p *big.Int) *big.Int {
	const rowBits = combBlocks * combCols
	acc := big.NewInt(1)
	mm := modMul{p: p}
	var ent big.Int // read-only view of a table entry
	for k := combCols - 1; k >= 0; k-- {
		mm.mul(acc, acc, acc)
		for _, t := range terms {
			for j := 0; j < combBlocks; j++ {
				u := 0
				for i := combTeeth - 1; i >= 0; i-- {
					pos := uint(i*rowBits + j*combCols + k)
					u <<= 1
					if w := pos / bits.UintSize; w < uint(len(t.e)) {
						u |= int(t.e[w]>>(pos%bits.UintSize)) & 1
					}
				}
				if u != 0 {
					mm.mul(acc, acc, ent.SetBits(t.c.entry(j, u)))
				}
			}
		}
	}
	mm.mul(acc, acc, tail)
	return acc
}

// fixedBase is the lazily built comb of one generator.
type fixedBase struct {
	once  sync.Once
	table *comb
}

// ExpGH returns g^m·h^r mod p — a Pedersen commitment — in one walk of
// both generators' tables; m and r any integers (taken mod q).
func (gr *Group) ExpGH(m, r *big.Int) *big.Int {
	terms := make([]combTerm, 0, 2)
	wide := one // times what the combs cannot serve
	for i, e := range [2]*big.Int{m, r} {
		fb, base := &gr.fixedG, gr.G
		if i == 1 {
			fb, base = &gr.fixedH, gr.H
		}
		// Both generators have order q, so any integer exponent may be
		// reduced into [0, q) first — the value big.Int.Exp yields for
		// negative and oversize exponents too.
		if e.Sign() < 0 || e.Cmp(gr.Q) >= 0 {
			e = new(big.Int).Mod(e, gr.Q)
		}
		if e.BitLen() > combBits { // only a test-built group has a q this wide
			wide = gr.Mul(wide, gr.Exp(base, e))
		} else if e.Sign() != 0 {
			fb.once.Do(func() { fb.table = newComb(base, gr.P) })
			terms = append(terms, combTerm{fb.table, e.Bits()})
		}
	}
	return combProduct(terms, wide, gr.P)
}
