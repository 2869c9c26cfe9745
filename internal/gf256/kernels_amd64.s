#include "textflag.h"

// LOAD_TABLES reads the 32-byte nibble table at (AX): the low-nibble half
// into both lanes of Y0, the high-nibble half into both lanes of Y1, and
// puts 0x0f in every byte of Y2. (Frame references stay out of the macros:
// vet's asmdecl check reads them as belonging to the preceding TEXT.)
#define LOAD_TABLES \
	VBROADCASTI128 (AX), Y0; \
	VBROADCASTI128 16(AX), Y1; \
	MOVL           $0x0f, AX; \
	VMOVQ          AX, X2; \
	VPBROADCASTB   X2, Y2

// MUL32 leaves c·src[0:32] in Y3 for the 32 bytes at (SI).
#define MUL32 \
	VMOVDQU (SI), Y3; \
	VPSRLQ  $4, Y3, Y4; \
	VPAND   Y2, Y3, Y3; \
	VPAND   Y2, Y4, Y4; \
	VPSHUFB Y3, Y0, Y3; \
	VPSHUFB Y4, Y1, Y4; \
	VPXOR   Y4, Y3, Y3

// NEXT32 steps both pointers and loops while bytes remain.
#define NEXT32(loop) \
	ADDQ $32, SI; \
	ADDQ $32, DI; \
	SUBQ $32, CX; \
	JNZ  loop

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7            // highest basic leaf must reach leaf 7
	JCS  done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX   // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX            // XCR0: the OS saves XMM (bit 1) and YMM (bit 2)
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX            // leaf 7 EBX bit 5: AVX2
	ANDL $1, BX
	MOVB BX, ret+0(FP)
done:
	RET

// func mulAddAVX2(tab *[32]byte, src, dst []byte)
// dst[i] ^= c·src[i]; len(src) is a positive multiple of 32.
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-56
	MOVQ tab+0(FP), AX
	LOAD_TABLES
	MOVQ src_base+8(FP), SI
	MOVQ src_len+16(FP), CX
	MOVQ dst_base+32(FP), DI
addloop:
	MUL32
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y3, (DI)
	NEXT32(addloop)
	VZEROUPPER
	RET

// func mulAssignAVX2(tab *[32]byte, src, dst []byte)
// dst[i] = c·src[i]; len(src) is a positive multiple of 32.
TEXT ·mulAssignAVX2(SB), NOSPLIT, $0-56
	MOVQ tab+0(FP), AX
	LOAD_TABLES
	MOVQ src_base+8(FP), SI
	MOVQ src_len+16(FP), CX
	MOVQ dst_base+32(FP), DI
assignloop:
	MUL32
	VMOVDQU Y3, (DI)
	NEXT32(assignloop)
	VZEROUPPER
	RET

// func xorAVX2(src, dst []byte)
// dst[i] ^= src[i]; len(src) is a positive multiple of 32.
TEXT ·xorAVX2(SB), NOSPLIT, $0-48
	MOVQ src_base+0(FP), SI
	MOVQ src_len+8(FP), CX
	MOVQ dst_base+24(FP), DI
xorloop:
	VMOVDQU (SI), Y3
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y3, (DI)
	NEXT32(xorloop)
	VZEROUPPER
	RET
