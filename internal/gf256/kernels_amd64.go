package gf256

// AVX2 kernels (kernels_amd64.s). A byte x = hi<<4 | lo multiplies as
// c·x = c·lo ^ c·(hi<<4) because multiplication by c is GF(2)-linear, so
// two 16-entry tables per coefficient replace the 256-entry row and one
// VPSHUFB looks up 32 bytes at a time. The assembly loops are do-while
// over whole 32-byte blocks: callers pass n >= 32, n%32 == 0, and the
// portable kernel takes the tail.

// useAVX2 is decided once from CPUID: AVX2, plus OSXSAVE and the XCR0
// bits that say the OS saves YMM state. There is no override — a CPU
// without AVX2, like every non-amd64 build, runs the portable kernel.
var useAVX2 = cpuHasAVX2()

// nibTable[c] is coefficient c's pair of VPSHUFB tables: c·i for the low
// nibble in bytes 0–15, c·(i<<4) for the high nibble in bytes 16–31. It
// depends on expTable/logTable through Mul, which orders it after them.
var nibTable = buildNibTable()

func buildNibTable() *[256][32]byte {
	var t [256][32]byte
	for c := range t {
		for i := 0; i < 16; i++ {
			t[c][i] = Mul(byte(c), byte(i))
			t[c][16+i] = Mul(byte(c), byte(i<<4))
		}
	}
	return &t
}

// vecLen is the length of the prefix of an n-byte slice the assembly
// takes: the whole 32-byte blocks, or nothing without AVX2.
func vecLen(n int) int {
	if !useAVX2 {
		return 0
	}
	return n &^ 31
}

// mulAddVec, mulAssignVec and xorVec run the vector prefix of their
// kernel and return its length. The coefficient is recovered from the
// multiplication table itself: tab[1] == c·1.
func mulAddVec(tab *[256]byte, src, dst []byte) int {
	n := vecLen(len(src))
	if n > 0 {
		mulAddAVX2(&nibTable[tab[1]], src[:n], dst[:n])
	}
	return n
}

func mulAssignVec(tab *[256]byte, src, dst []byte) int {
	n := vecLen(len(src))
	if n > 0 {
		mulAssignAVX2(&nibTable[tab[1]], src[:n], dst[:n])
	}
	return n
}

func xorVec(src, dst []byte) int {
	n := vecLen(len(src))
	if n > 0 {
		xorAVX2(src[:n], dst[:n])
	}
	return n
}

func cpuHasAVX2() bool

//go:noescape
func mulAddAVX2(tab *[32]byte, src, dst []byte)

//go:noescape
func mulAssignAVX2(tab *[32]byte, src, dst []byte)

//go:noescape
func xorAVX2(src, dst []byte)
