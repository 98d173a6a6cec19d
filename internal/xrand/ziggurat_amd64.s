#include "textflag.h"

// The SplitMix64 increments of one step's low eight lanes: lane i draws
// the word at state + (i+1)·γ, γ = 0x9e3779b97f4a7c15; lane i+8 draws
// the word 8γ after lane i.
DATA zigLanes<>+0(SB)/8, $0x9e3779b97f4a7c15
DATA zigLanes<>+8(SB)/8, $0x3c6ef372fe94f82a
DATA zigLanes<>+16(SB)/8, $0xdaa66d2c7ddf743f
DATA zigLanes<>+24(SB)/8, $0x78dde6e5fd29f054
DATA zigLanes<>+32(SB)/8, $0x1715609f7c746c69
DATA zigLanes<>+40(SB)/8, $0xb54cda58fbbee87e
DATA zigLanes<>+48(SB)/8, $0x538454127b096493
DATA zigLanes<>+56(SB)/8, $0xf1bbcdcbfa53e0a8
GLOBL zigLanes<>(SB), RODATA|NOPTR, $64

// The dword indexes that gather the 16 words' low halves (j) and high
// halves (the layer bits) from the two registers of words.
DATA zigEven<>+0(SB)/4, $0
DATA zigEven<>+4(SB)/4, $2
DATA zigEven<>+8(SB)/4, $4
DATA zigEven<>+12(SB)/4, $6
DATA zigEven<>+16(SB)/4, $8
DATA zigEven<>+20(SB)/4, $10
DATA zigEven<>+24(SB)/4, $12
DATA zigEven<>+28(SB)/4, $14
DATA zigEven<>+32(SB)/4, $16
DATA zigEven<>+36(SB)/4, $18
DATA zigEven<>+40(SB)/4, $20
DATA zigEven<>+44(SB)/4, $22
DATA zigEven<>+48(SB)/4, $24
DATA zigEven<>+52(SB)/4, $26
DATA zigEven<>+56(SB)/4, $28
DATA zigEven<>+60(SB)/4, $30
GLOBL zigEven<>(SB), RODATA|NOPTR, $64
DATA zigOdd<>+0(SB)/4, $1
DATA zigOdd<>+4(SB)/4, $3
DATA zigOdd<>+8(SB)/4, $5
DATA zigOdd<>+12(SB)/4, $7
DATA zigOdd<>+16(SB)/4, $9
DATA zigOdd<>+20(SB)/4, $11
DATA zigOdd<>+24(SB)/4, $13
DATA zigOdd<>+28(SB)/4, $15
DATA zigOdd<>+32(SB)/4, $17
DATA zigOdd<>+36(SB)/4, $19
DATA zigOdd<>+40(SB)/4, $21
DATA zigOdd<>+44(SB)/4, $23
DATA zigOdd<>+48(SB)/4, $25
DATA zigOdd<>+52(SB)/4, $27
DATA zigOdd<>+56(SB)/4, $29
DATA zigOdd<>+60(SB)/4, $31
GLOBL zigOdd<>(SB), RODATA|NOPTR, $64

// The source row of a fill: -0 is the exact identity of float64
// addition, so -0 + z*std has the bits of z*std, signed zeros included.
DATA zigNegZero<>+0(SB)/8, $0x8000000080000000
DATA zigNegZero<>+8(SB)/8, $0x8000000080000000
DATA zigNegZero<>+16(SB)/8, $0x8000000080000000
DATA zigNegZero<>+24(SB)/8, $0x8000000080000000
GLOBL zigNegZero<>(SB), RODATA|NOPTR, $32

// 2⁻⁵³: Float64 scales its 53 bits by it, exactly.
DATA zigTwo53<>+0(SB)/8, $0x3ca0000000000000
GLOBL zigTwo53<>(SB), RODATA|NOPTR, $8

// zigTail[n] masks the low n of eight lanes.
DATA zigTail<>+0(SB)/8, $0x7f3f1f0f07030100
DATA zigTail<>+8(SB)/1, $0xff
GLOBL zigTail<>(SB), RODATA|NOPTR, $9

// ZIGMIX sets u to SplitMix64's finalizer of the eight states in s.
#define ZIGMIX(s, u, t) \
	VPSRLQ  $30, s, u; \
	VPXORQ  s, u, u; \
	VPMULLQ Z19, u, u; \
	VPSRLQ  $27, u, t; \
	VPXORQ  t, u, u; \
	VPMULLQ Z20, u, u; \
	VPSRLQ  $31, u, t; \
	VPXORQ  t, u, u

// ZIGGEN draws 16 words, lane i at Z16/Z17's state, and advances the
// states to the next 16. It stores each word at 512+off(SP) and its
// z·std = float64(j)·float64(wn[k])·std, in the Go code's order, at
// off(SP), and ORs its fast-path bit (|j| < kn[k]: the draw ends on
// this word) into R10 at bit shift + lane. The layer tables are
// gathered with VPGATHERDD.
#define ZIGGEN(off, shift) \
	ZIGMIX(Z16, Z0, Z28); \
	ZIGMIX(Z17, Z1, Z29); \
	VMOVDQU64     Z0, 512+off(SP); \
	VMOVDQU64     Z1, 576+off(SP); \
	VMOVDQA32     Z11, Z2; \
	VPERMI2D      Z1, Z0, Z2; \
	VMOVDQA32     Z12, Z3; \
	VPERMI2D      Z1, Z0, Z3; \
	VPANDD        Z13, Z3, Z3; \
	LEAQ          ·kn(SB), R11; \
	KXNORW        K1, K1, K1; \
	VPGATHERDD    (R11)(Z3*4), K1, Z4; \
	LEAQ          ·wn(SB), R11; \
	KXNORW        K2, K2, K2; \
	VGATHERDPS    (R11)(Z3*4), K2, Z5; \
	VPABSD        Z2, Z6; \
	VPCMPUD       $1, Z4, Z6, K3; \
	VCVTDQ2PD     Y2, Z7; \
	VCVTPS2PD     Y5, Z8; \
	VMULPD        Z8, Z7, Z7; \
	VMULPD        Z21, Z7, Z7; \
	VMOVUPD       Z7, off(SP); \
	VEXTRACTI32X8 $1, Z2, Y9; \
	VCVTDQ2PD     Y9, Z9; \
	VEXTRACTF32X8 $1, Z5, Y10; \
	VCVTPS2PD     Y10, Z10; \
	VMULPD        Z10, Z9, Z9; \
	VMULPD        Z21, Z9, Z9; \
	VMOVUPD       Z9, off+64(SP); \
	KMOVW         K3, R11; \
	SHLQ          $shift, R11; \
	ORQ           R11, R10; \
	VPADDQ        Z18, Z16, Z16; \
	VPADDQ        Z18, Z17, Z17

// NEXTBLOCK draws the next block, the 32 words after the current one,
// from Z16 and Z17 into 256–511(SP) and 768–1023(SP), its fast mask in
// R10, and marks it drawn.
#define NEXTBLOCK \
	XORQ R10, R10; \
	ZIGGEN(256, 0); \
	ZIGGEN(384, 16); \
	MOVB $1, 1024(SP)

// func zigguratAVX512(dst, src []float32, state uint64, std float64) (done int, next uint64)
//
// The kernel draws words 32 at a time, 16 lanes to a step: each word,
// its z·std and its fast-path bit go to stack buffers and a mask. Two
// such blocks are in flight: the kernel walks the current one while the
// next is drawn, so the walk's branches test a mask drawn a block
// earlier. A run of fast words fills as many cells, eight to a step. A
// word off the fast path is decided in scalar code as zigguratSlow
// decides it: a wedge draws y from the next word and the squeeze band
// accepts it (the cell is the word's z·std) or rejects it (the draw
// starts over at the word after y, which the walk takes as it takes
// any first word). A draw that needs math.Log (the base layer's tail)
// or math.Exp (a y inside the band) is left to the caller: the kernel
// stops before that cell.
//
// Registers: DI, SI the next cell of dst and src (a fill reads -0 from
// zigNegZero: -0 + z·std has the bits of z·std); R13 the source bytes
// per cell, 4 or 0; DX the cells left; AX the cells done; BX the state
// before the current block's first word; CX the block word the walk is
// at; R8 the current block's fast mask and R10 the next block's. The
// z·std buffer is 0–511(SP) and the word buffer 512–1023(SP), the
// current block in the first half of each; 1024(SP) is 1 while the next
// block is drawn. The next block is drawn only when the walk may reach
// it, so a call draws few words past its last cell.
TEXT ·zigguratAVX512(SB), $1032-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ src_base+24(FP), SI
	MOVQ state+48(FP), BX
	XORQ AX, AX
	XORQ CX, CX
	TESTQ DX, DX
	JZ   empty
	MOVQ $4, R13
	TESTQ SI, SI
	JNZ  consts
	LEAQ zigNegZero<>(SB), SI
	XORQ R13, R13

consts:
	// Z11, Z12 the j and layer indexes; Z13 the layer mask 0x7f; Z14
	// 8γ; Z18 the step 16γ; Z19, Z20 the finalizer's multipliers; Z21
	// std.
	VMOVDQU32    zigEven<>(SB), Z11
	VMOVDQU32    zigOdd<>(SB), Z12
	MOVL         $0x7f, R11
	VPBROADCASTD R11, Z13
	MOVQ         $0xf1bbcdcbfa53e0a8, R11
	VPBROADCASTQ R11, Z14
	MOVQ         $0xe3779b97f4a7c150, R11
	VPBROADCASTQ R11, Z18
	MOVQ         $0xbf58476d1ce4e5b9, R11
	VPBROADCASTQ R11, Z19
	MOVQ         $0x94d049bb133111eb, R11
	VPBROADCASTQ R11, Z20
	VBROADCASTSD std+56(FP), Z21

draw:
	// Draw the current block from BX, Z16 and Z17 holding the 16 lanes'
	// states, lane i at BX + (i+1)·γ; then the next block if more cells
	// are left than words in the current one.
	VPBROADCASTQ BX, Z16
	VPADDQ       zigLanes<>(SB), Z16, Z16
	VPADDQ       Z14, Z16, Z17
	XORQ         R10, R10
	ZIGGEN(0, 0)
	ZIGGEN(128, 16)
	MOVQ         R10, R8
	XORQ         CX, CX
	MOVB         $0, 1024(SP)
	CMPQ         DX, $32
	JLS          walk
	NEXTBLOCK

walk:
	// R9: the fast words from CX on, at most the cells left. The mask's
	// bits from 32 up read as slow, so the run ends at the block's end.
	MOVQ    R8, R9
	NOTQ    R9
	SHRQ    CX, R9
	BSFQ    R9, R9
	CMPQ    R9, DX
	CMOVQHI DX, R9
	TESTQ   R9, R9
	JZ      slow

run:
	// Fill the run's cells from the buffer, eight to a step:
	// float32(float64(src) + z·std).
	CMPQ      R9, $8
	JB        tail
	VMOVUPD   (SP)(CX*8), Z28
	VCVTPS2PD (SI), Z29
	VADDPD    Z28, Z29, Z28
	VCVTPD2PS Z28, Y28
	VMOVUPS   Y28, (DI)
	ADDQ      $8, CX
	ADDQ      $8, AX
	ADDQ      $32, DI
	SUBQ      $8, DX
	LEAQ      (SI)(R13*8), SI
	SUBQ      $8, R9
	JNZ       run
	JMP       ran

tail:
	LEAQ        zigTail<>(SB), R11
	MOVBLZX     (R11)(R9*1), R11
	KMOVB       R11, K4
	VMOVUPD.Z   (SP)(CX*8), K4, Z28
	VCVTPS2PD.Z (SI), K4, Z29
	VADDPD      Z28, Z29, Z28
	VCVTPD2PS   Z28, Y28
	VMOVUPS     Y28, K4, (DI)
	ADDQ        R9, CX
	ADDQ        R9, AX
	LEAQ        (DI)(R9*4), DI
	SUBQ        R9, DX
	IMULQ       R13, R9
	ADDQ        R9, SI

ran:
	TESTQ DX, DX
	JZ    finish
	CMPQ  CX, $32
	JAE   rotate

slow:
	// Block word CX, u, leaves the fast path: R9 its layer i. The last
	// word's y lies in the next block, which must be drawn.
	CMPQ  CX, $31
	JNE   word
	CMPB  1024(SP), $0
	JNE   word
	NEXTBLOCK

word:
	MOVQ  512(SP)(CX*8), R12
	MOVQ  R12, R9
	SHRQ  $32, R9
	ANDL  $0x7f, R9
	JZ    finish // the base layer's tail: leave the cell to Go

	// |x| = |float64(j) * float64(wn[i])|.
	MOVLQSX    R12, R11
	VCVTSI2SDQ R11, X24, X24
	LEAQ       ·wn(SB), R11
	VCVTSS2SD  (R11)(R9*4), X25, X25
	VMULSD     X25, X24, X24
	VMOVQ      X24, R11
	BTRQ       $63, R11
	VMOVQ      R11, X26

	// y = float64(fn[i] + float32(Float64())*(fn[i-1]-fn[i])), Float64
	// taking the next word.
	MOVQ       520(SP)(CX*8), R12
	SHRQ       $11, R12
	VCVTSI2SDQ R12, X25, X25
	VMULSD     zigTwo53<>(SB), X25, X25
	VCVTSD2SS  X25, X25, X25
	LEAQ       ·fn(SB), R11
	VMOVSS     -4(R11)(R9*4), X27
	VSUBSS     (R11)(R9*4), X27, X27
	VMULSS     X27, X25, X25
	VADDSS     (R11)(R9*4), X25, X25
	VCVTSS2SD  X25, X25, X25

	// c = zc0[i] + zm[i]*|x|; accept below c − zlo[i], leave to Go up
	// to c + zhi[i], reject above.
	LEAQ     ·zm(SB), R11
	VMULSD   (R11)(R9*8), X26, X26
	LEAQ     ·zc0(SB), R11
	VADDSD   (R11)(R9*8), X26, X26
	LEAQ     ·zlo(SB), R11
	VSUBSD   (R11)(R9*8), X26, X27
	VUCOMISD X27, X25
	JCS      accept
	LEAQ     ·zhi(SB), R11
	VADDSD   (R11)(R9*8), X26, X27
	VUCOMISD X27, X25
	JLS      finish // inside the band: leave the cell to Go
	ADDQ     $2, CX // rejected: the draw starts over after y
	JMP      resume

accept:
	// The cell: float32(float64(src) + z·std).
	VMOVSD    (SP)(CX*8), X24
	VCVTSS2SD (SI), X25, X25
	VADDSD    X24, X25, X25
	VCVTSD2SS X25, X25, X25
	VMOVSS    X25, (DI)
	ADDQ      $2, CX
	INCQ      AX
	ADDQ      $4, DI
	ADDQ      R13, SI
	DECQ      DX
	JZ        finish

resume:
	CMPQ CX, $32
	JB   walk

rotate:
	// The walk left the current block at word CX, 32 or 33. A drawn next
	// block becomes current; otherwise the blocks are drawn afresh.
	MOVQ  $0x9e3779b97f4a7c15, R11
	CMPB  1024(SP), $0
	JNE   advance
	IMULQ CX, R11
	ADDQ  R11, BX
	JMP   draw

advance:
	VMOVUPD 256(SP), Z28
	VMOVUPD Z28, (SP)
	VMOVUPD 320(SP), Z28
	VMOVUPD Z28, 64(SP)
	VMOVUPD 384(SP), Z28
	VMOVUPD Z28, 128(SP)
	VMOVUPD 448(SP), Z28
	VMOVUPD Z28, 192(SP)
	VMOVDQU64 768(SP), Z28
	VMOVDQU64 Z28, 512(SP)
	VMOVDQU64 832(SP), Z28
	VMOVDQU64 Z28, 576(SP)
	VMOVDQU64 896(SP), Z28
	VMOVDQU64 Z28, 640(SP)
	VMOVDQU64 960(SP), Z28
	VMOVDQU64 Z28, 704(SP)
	MOVQ  R10, R8
	SUBQ  $32, CX
	SHLQ  $5, R11
	ADDQ  R11, BX
	MOVB  $0, 1024(SP)
	MOVQ  $32, R11
	SUBQ  CX, R11
	CMPQ  DX, R11
	JLS   walk
	NEXTBLOCK
	JMP   walk

finish:
	MOVQ  $0x9e3779b97f4a7c15, R11
	IMULQ CX, R11
	ADDQ  R11, BX
	VZEROUPPER

empty:
	MOVQ AX, done+64(FP)
	MOVQ BX, next+72(FP)
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

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
