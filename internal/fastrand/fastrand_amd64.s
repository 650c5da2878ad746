#include "textflag.h"

// AVX2 inner loops of the row kernels. Each call covers one wrap-free run
// of the lag window: vf and vt point at the low end of the run's feed and
// tap windows, draw j of the run sits at index n-1-j of both, so four
// consecutive draws are one 32-byte load of each window with the earliest
// draw in the highest lane. The package doc ("SIMD path") gives the
// bit-identity argument for the conversion and the arithmetic.

// Lane numbers 0..3, compared against a broadcast column count to split a
// group of four draws between two rows.
DATA laneIdx<>+0(SB)/8, $0
DATA laneIdx<>+8(SB)/8, $1
DATA laneIdx<>+16(SB)/8, $2
DATA laneIdx<>+24(SB)/8, $3
GLOBL laneIdx<>(SB), RODATA|NOPTR, $32

// The loop constants, broadcast to a full register each by JITTER_CONSTS:
// Y8 = 1.0, Y9 = 2^-62 (the Float64 scale times the 2 of f*2),
// Y10 = 2^84+2^52, Y11 = 2^52, Y12 = 2^84, Y13 = the Int63 mask and
// Y14 = 2^63-513 (an Int63 above it rounds to 2^63, so Float64 retries
// it). They are loaded from memory: a legacy-SSE move into an XMM register
// between VEX instructions would cost an SSE/AVX state transition.
DATA jitterConsts<>+0(SB)/8, $0x3ff0000000000000
DATA jitterConsts<>+8(SB)/8, $0x3c10000000000000
DATA jitterConsts<>+16(SB)/8, $0x4530000000100000
DATA jitterConsts<>+24(SB)/8, $0x4330000000000000
DATA jitterConsts<>+32(SB)/8, $0x4530000000000000
DATA jitterConsts<>+40(SB)/8, $0x7fffffffffffffff
DATA jitterConsts<>+48(SB)/8, $0x7ffffffffffffdff
GLOBL jitterConsts<>(SB), RODATA|NOPTR, $56

#define JITTER_CONSTS \
	VPBROADCASTQ jitterConsts<>+0(SB), Y8; \
	VPBROADCASTQ jitterConsts<>+8(SB), Y9; \
	VPBROADCASTQ jitterConsts<>+16(SB), Y10; \
	VPBROADCASTQ jitterConsts<>+24(SB), Y11; \
	VPBROADCASTQ jitterConsts<>+32(SB), Y12; \
	VPBROADCASTQ jitterConsts<>+40(SB), Y13; \
	VPBROADCASTQ jitterConsts<>+48(SB), Y14

// DRAW4 advances the lag window by four draws and leaves
// 1 + (f*2-1)*amp for each of them in Y3, in memory lane order (the
// earliest draw in lane 3). If any of the four would be retried it jumps
// to retry before storing anything, so the group stays undrawn.
//
// The Int63 value v is converted exactly: its high and low 32-bit halves
// are placed in the mantissas of 2^84 and 2^52, the first minus
// 2^84+2^52 is exact, and the final add rounds once, to nearest even —
// the rounding CVTSI2SD applies to v.
#define DRAW4(retry) \
	VMOVDQU  -32(SI)(CX*8), Y0; \
	VPADDQ   -32(DI)(CX*8), Y0, Y0; \
	VPAND    Y13, Y0, Y1; \
	VPCMPGTQ Y14, Y1, Y2; \
	VPTEST   Y2, Y2; \
	JNZ      retry; \
	VMOVDQU  Y0, -32(SI)(CX*8); \
	VPSRLQ   $32, Y1, Y3; \
	VPOR     Y12, Y3, Y3; \
	VPBLENDD $0xaa, Y11, Y1, Y4; \
	VSUBPD   Y10, Y3, Y3; \
	VADDPD   Y4, Y3, Y3; \
	VMULPD   Y9, Y3, Y3; \
	VSUBPD   Y8, Y3, Y3; \
	VMULPD   Y15, Y3, Y3; \
	VADDPD   Y8, Y3, Y3

// func jitterRowsAVX2(vf, vt *uint64, d *float64, n int, scales *float64, rowRem, cols int, amp float64) int
//
// Draws whole groups of four from a run of n draws into d[0:], starting
// rowRem columns before the end of the row whose scale is scales[0]; rows
// are cols long (cols >= 4) and follow one another in d. Returns the
// number of draws made, a multiple of four.
TEXT ·jitterRowsAVX2(SB), NOSPLIT, $0-72
	MOVQ vf+0(FP), SI
	MOVQ vt+8(FP), DI
	MOVQ d+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ scales+32(FP), R8
	MOVQ rowRem+40(FP), R9
	MOVQ cols+48(FP), R10
	VBROADCASTSD amp+56(FP), Y15
	JITTER_CONSTS
	VBROADCASTSD (R8), Y7
	XORQ AX, AX

rowsLoop:
	CMPQ CX, $4
	JLT  rowsDone
	TESTQ R9, R9
	JNZ  rowsDraw
	MOVQ R10, R9
	ADDQ $8, R8
	VBROADCASTSD (R8), Y7

rowsDraw:
	DRAW4(rowsDone)
	VPERMPD $0x1b, Y3, Y3 // slot order: the earliest draw first
	CMPQ R9, $4
	JLT  rowsStraddle
	VMULPD Y7, Y3, Y3
	SUBQ $4, R9

rowsAccum:
	VADDPD  (DX), Y3, Y3
	VMOVUPD Y3, (DX)
	ADDQ $32, DX
	SUBQ $4, CX
	ADDQ $4, AX
	JMP  rowsLoop

rowsStraddle:
	// The first rowRem slots end this row; the rest start the next one.
	VMOVQ R9, X5
	VPBROADCASTQ X5, Y5
	VPCMPGTQ laneIdx<>(SB), Y5, Y5
	ADDQ $8, R8
	VBROADCASTSD (R8), Y6
	VBLENDVPD Y5, Y7, Y6, Y5
	VMULPD Y5, Y3, Y3
	VMOVAPD Y6, Y7
	LEAQ -4(R9)(R10*1), R9
	JMP  rowsAccum

rowsDone:
	MOVQ AX, ret+64(FP)
	VZEROUPPER
	RET

// PAIR_SCALES sets Y7 to the current pair's [sa, sa, sb, sb].
#define PAIR_SCALES \
	VBROADCASTSD (R8), Y7; \
	VBROADCASTSD (R11), Y6; \
	VINSERTF128  $1, X6, Y7, Y7

// func jitter2RowsAVX2(vf, vt *uint64, a *float64, n int, scaleA, scaleB *float64, colRem, cols int, amp float64) int
//
// The row-pair form: a points at the current column of a pair's "a" row,
// its "b" row follows cols slots later, and the next pair's "a" row cols
// slots after that. Each group of four draws is two columns' usage/time
// pairs; the run must start on a pair boundary. colRem columns remain in
// the current pair, whose scales are scaleA[0] and scaleB[0]. Returns the
// number of draws made, a multiple of four.
TEXT ·jitter2RowsAVX2(SB), NOSPLIT, $0-80
	MOVQ vf+0(FP), SI
	MOVQ vt+8(FP), DI
	MOVQ a+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ scaleA+32(FP), R8
	MOVQ scaleB+40(FP), R11
	MOVQ colRem+48(FP), R9
	MOVQ cols+56(FP), R10
	VBROADCASTSD amp+64(FP), Y15
	MOVQ R10, R12
	SHLQ $3, R12 // row length in bytes
	JITTER_CONSTS
	PAIR_SCALES
	XORQ AX, AX

pairsLoop:
	CMPQ CX, $4
	JLT  pairsDone
	TESTQ R9, R9
	JNZ  pairsDraw
	MOVQ R10, R9
	ADDQ R12, DX
	ADDQ $8, R8
	ADDQ $8, R11
	PAIR_SCALES

pairsDraw:
	DRAW4(pairsDone)
	VPERMPD $0x27, Y3, Y3 // [a(c), a(c+1), b(c), b(c+1)]
	CMPQ R9, $1
	JEQ  pairsStraddle
	VMULPD      Y7, Y3, Y3
	VMOVUPD     (DX), X4
	VINSERTF128 $1, (DX)(R12*1), Y4, Y4
	VADDPD      Y4, Y3, Y3
	VMOVUPD     X3, (DX)
	VEXTRACTF128 $1, Y3, (DX)(R12*1)
	ADDQ $16, DX
	SUBQ $2, R9

pairsNext:
	SUBQ $4, CX
	ADDQ $4, AX
	JMP  pairsLoop

pairsStraddle:
	// Column c ends this pair and column c+1 is the next pair's first:
	// lanes [a(c), a'(0), b(c), b'(0)] with scales [sa, sa', sb, sb'].
	VMOVUPD     (R8), X5
	VINSERTF128 $1, (R11), Y5, Y5
	VMULPD      Y5, Y3, Y3
	VMOVSD      (DX), X4
	VMOVHPD     8(DX)(R12*1), X4, X4
	VMOVSD      (DX)(R12*1), X5
	VMOVHPD     8(DX)(R12*2), X5, X5
	VINSERTF128 $1, X5, Y4, Y4
	VADDPD      Y4, Y3, Y3
	VMOVSD      X3, (DX)
	VMOVHPD     X3, 8(DX)(R12*1)
	VEXTRACTF128 $1, Y3, X5
	VMOVSD      X5, (DX)(R12*1)
	VMOVHPD     X5, 8(DX)(R12*2)
	LEAQ 16(DX)(R12*1), DX
	ADDQ $8, R8
	ADDQ $8, R11
	PAIR_SCALES
	LEAQ -1(R10), R9
	JMP  pairsNext

pairsDone:
	MOVQ AX, ret+72(FP)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
