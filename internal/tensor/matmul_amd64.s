#include "textflag.h"

// func mul4x16(c []float32, cs int, a []float32, as int, b []float32, acc bool)
//
// A 4×16 tile of C over the full k = as extent: rows of A at stride
// as, B a packed k×16 panel, C rows at stride cs. Y0–Y7 hold the tile,
// two YMM registers (16 lanes) per row. Each step over p loads the
// panel's row p once, then per row of A broadcasts one value, rounds
// the product (VMULPS) and adds it to the row's sums (VADDPS, sum
// first). There is no fused multiply-add: every lane rounds exactly
// as mul2x4's MULSS/ADDSS chain does, in the same ascending p order.
TEXT ·mul4x16(SB), NOSPLIT, $0-89
	MOVQ c_base+0(FP), DI
	MOVQ cs+24(FP), R8
	MOVQ a_base+32(FP), SI
	MOVQ as+56(FP), CX
	MOVQ b_base+64(FP), BX
	SHLQ $2, R8             // C row stride in bytes
	LEAQ (SI)(CX*4), R9     // A row 1
	LEAQ (R9)(CX*4), R10    // A row 2
	LEAQ (R10)(CX*4), R11   // A row 3
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ AX, AX
	CMPQ AX, CX
	JGE  sums

loop:
	VMOVUPS      (BX), Y8
	VMOVUPS      32(BX), Y9
	VBROADCASTSS (SI)(AX*4), Y10
	VBROADCASTSS (R9)(AX*4), Y11
	VMULPS       Y8, Y10, Y12
	VMULPS       Y9, Y10, Y13
	VADDPS       Y12, Y0, Y0
	VADDPS       Y13, Y1, Y1
	VMULPS       Y8, Y11, Y14
	VMULPS       Y9, Y11, Y15
	VADDPS       Y14, Y2, Y2
	VADDPS       Y15, Y3, Y3
	VBROADCASTSS (R10)(AX*4), Y10
	VBROADCASTSS (R11)(AX*4), Y11
	VMULPS       Y8, Y10, Y12
	VMULPS       Y9, Y10, Y13
	VADDPS       Y12, Y4, Y4
	VADDPS       Y13, Y5, Y5
	VMULPS       Y8, Y11, Y14
	VMULPS       Y9, Y11, Y15
	VADDPS       Y14, Y6, Y6
	VADDPS       Y15, Y7, Y7
	ADDQ         $64, BX
	INCQ         AX
	CMPQ         AX, CX
	JLT          loop

sums:
	LEAQ (DI)(R8*1), R9     // C row 1
	LEAQ (R9)(R8*1), R10    // C row 2
	LEAQ (R10)(R8*1), R11   // C row 3
	CMPB acc+88(FP), $0
	JEQ  store

	// C += tile, C the first operand of each sum as in `crow[q] += s`.
	VMOVUPS (DI), Y8
	VMOVUPS 32(DI), Y9
	VADDPS  Y0, Y8, Y0
	VADDPS  Y1, Y9, Y1
	VMOVUPS (R9), Y8
	VMOVUPS 32(R9), Y9
	VADDPS  Y2, Y8, Y2
	VADDPS  Y3, Y9, Y3
	VMOVUPS (R10), Y8
	VMOVUPS 32(R10), Y9
	VADDPS  Y4, Y8, Y4
	VADDPS  Y5, Y9, Y5
	VMOVUPS (R11), Y8
	VMOVUPS 32(R11), Y9
	VADDPS  Y6, Y8, Y6
	VADDPS  Y7, Y9, Y7

store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (R9)
	VMOVUPS Y3, 32(R9)
	VMOVUPS Y4, (R10)
	VMOVUPS Y5, 32(R10)
	VMOVUPS Y6, (R11)
	VMOVUPS Y7, 32(R11)
	VZEROUPPER
	RET

// func hasAVX2() bool
//
// Reports whether mul4x16 may run: CPUID leaf 1 sets AVX and OSXSAVE,
// XCR0 has the XMM and YMM state bits the OS saves across switches,
// and leaf 7 sets AVX2.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX    // bit 27 OSXSAVE, bit 28 AVX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX             // XCR0 bit 1 SSE state, bit 2 AVX state
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX             // leaf 7 EBX bit 5 AVX2
	ANDL $1, BX
	MOVB BX, ret+0(FP)

done:
	RET
