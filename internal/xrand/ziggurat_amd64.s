#include "textflag.h"

// The SplitMix64 increments of one 8-lane step: lane i draws the word at
// state + (i+1)·γ, γ = 0x9e3779b97f4a7c15.
DATA zigLanes<>+0(SB)/8, $0x9e3779b97f4a7c15
DATA zigLanes<>+8(SB)/8, $0x3c6ef372fe94f82a
DATA zigLanes<>+16(SB)/8, $0xdaa66d2c7ddf743f
DATA zigLanes<>+24(SB)/8, $0x78dde6e5fd29f054
DATA zigLanes<>+32(SB)/8, $0x1715609f7c746c69
DATA zigLanes<>+40(SB)/8, $0xb54cda58fbbee87e
DATA zigLanes<>+48(SB)/8, $0x538454127b096493
DATA zigLanes<>+56(SB)/8, $0xf1bbcdcbfa53e0a8
GLOBL zigLanes<>(SB), RODATA|NOPTR, $64

// The source row of a fill: -0 is the exact identity of float64
// addition, so -0 + z*std has the bits of z*std, signed zeros included.
DATA zigNegZero<>+0(SB)/8, $0x8000000080000000
DATA zigNegZero<>+8(SB)/8, $0x8000000080000000
DATA zigNegZero<>+16(SB)/8, $0x8000000080000000
DATA zigNegZero<>+24(SB)/8, $0x8000000080000000
GLOBL zigNegZero<>(SB), RODATA|NOPTR, $32

// ZIGVALUES writes the lanes of mask: dst = float32(float64(src) +
// float64(j)*float64(wn[k])*std), each operation in the Go code's order,
// rounded once on the store. Y24 holds j, Y27 wn[k].
#define ZIGVALUES(mask) \
	VCVTDQ2PD    Y24, Z28; \
	VCVTPS2PD    Y27, Z29; \
	VMULPD       Z29, Z28, Z28; \
	VMULPD       Z20, Z28, Z28; \
	VCVTPS2PD.Z  (SI), mask, Z29; \
	VADDPD       Z28, Z29, Z28; \
	VCVTPD2PS    Z28, Y28; \
	VMOVUPS      Y28, mask, (DI)

// ZIGLOOKUP sets out to table[k] for the 128-entry table held 16 entries
// to a register in t0–t7: VPERMI2D picks from each register pair (32
// entries) by k's low five bits, and K1 (k's bit 5) and K2 (bit 6)
// blend the four picks.
#define ZIGLOOKUP(t0, t1, t2, t3, t4, t5, t6, t7, out, tmp1, tmp2) \
	VMOVDQA32  Z25, out; \
	VPERMI2D   t1, t0, out; \
	VMOVDQA32  Z25, tmp1; \
	VPERMI2D   t3, t2, tmp1; \
	VPBLENDMD  tmp1, out, K1, out; \
	VMOVDQA32  Z25, tmp1; \
	VPERMI2D   t5, t4, tmp1; \
	VMOVDQA32  Z25, tmp2; \
	VPERMI2D   t7, t6, tmp2; \
	VPBLENDMD  tmp2, tmp1, K1, tmp1; \
	VPBLENDMD  tmp1, out, K2, out

// func zigguratAVX512(dst, src []float32, state uint64, std float64) (done int, next uint64)
TEXT ·zigguratAVX512(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ state+48(FP), DX
	XORQ AX, AX
	TESTQ CX, CX
	JZ   empty
	MOVQ $32, R10 // source bytes per step
	TESTQ SI, SI
	JNZ  tables
	LEAQ zigNegZero<>(SB), SI
	XORQ R10, R10

tables:
	// kn in Z0–Z7 and wn in Z8–Z15, 16 layers to a register.
	VMOVDQU32 ·kn+0(SB), Z0
	VMOVDQU32 ·kn+64(SB), Z1
	VMOVDQU32 ·kn+128(SB), Z2
	VMOVDQU32 ·kn+192(SB), Z3
	VMOVDQU32 ·kn+256(SB), Z4
	VMOVDQU32 ·kn+320(SB), Z5
	VMOVDQU32 ·kn+384(SB), Z6
	VMOVDQU32 ·kn+448(SB), Z7
	VMOVDQU32 ·wn+0(SB), Z8
	VMOVDQU32 ·wn+64(SB), Z9
	VMOVDQU32 ·wn+128(SB), Z10
	VMOVDQU32 ·wn+192(SB), Z11
	VMOVDQU32 ·wn+256(SB), Z12
	VMOVDQU32 ·wn+320(SB), Z13
	VMOVDQU32 ·wn+384(SB), Z14
	VMOVDQU32 ·wn+448(SB), Z15

	// Z16: the eight lanes' SplitMix64 states; Z17 the step 8γ; Z18, Z19
	// the finalizer's multipliers; Z20 std; Z21, Z22 the layer bits 5
	// and 6; K5 all eight lanes.
	VPBROADCASTQ DX, Z16
	VPADDQ       zigLanes<>(SB), Z16, Z16
	MOVQ         $0xf1bbcdcbfa53e0a8, BX
	VPBROADCASTQ BX, Z17
	MOVQ         $0xbf58476d1ce4e5b9, BX
	VPBROADCASTQ BX, Z18
	MOVQ         $0x94d049bb133111eb, BX
	VPBROADCASTQ BX, Z19
	VBROADCASTSD std+56(FP), Z20
	MOVL         $0x20, BX
	VPBROADCASTD BX, Z21
	MOVL         $0x40, BX
	VPBROADCASTD BX, Z22
	KXNORB       K5, K5, K5

loop:
	// u = mix(s) in Z23.
	VPSRLQ  $30, Z16, Z23
	VPXORQ  Z16, Z23, Z23
	VPMULLQ Z18, Z23, Z23
	VPSRLQ  $27, Z23, Z24
	VPXORQ  Z24, Z23, Z23
	VPMULLQ Z19, Z23, Z23
	VPSRLQ  $31, Z23, Z24
	VPXORQ  Z24, Z23, Z23

	// j = int32(u) in Y24; the layer k = u>>32 in Y25, of which the
	// lookups read bits 0–6.
	VPMOVQD  Z23, Y24
	VPSRLQ   $32, Z23, Z23
	VPMOVQD  Z23, Y25
	VPTESTMD Z21, Z25, K1
	VPTESTMD Z22, Z25, K2
	ZIGLOOKUP(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z26, Z28, Z29)
	ZIGLOOKUP(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, Z27, Z28, Z29)

	// K3: the lanes inside their layer's core, |j| < kn[k] unsigned.
	VPABSD  Y24, Y28
	VPCMPUD $1, Y26, Y28, K3

	CMPQ     CX, $8
	JB       partial
	KORTESTB K3, K3
	JCC      partial // a lane leaves the fast path
	ZIGVALUES(K5)
	ADDQ     $8, AX
	ADDQ     $32, DI
	ADDQ     R10, SI
	VPADDQ   Z17, Z16, Z16
	SUBQ     $8, CX
	JNZ      loop
	JMP      done

partial:
	// BX: the lanes left to fill, all eight or the low CX.
	MOVL  $0xff, BX
	CMPQ  CX, $8
	JAE   last
	MOVL  $1, BX
	SHLL  CX, BX
	DECL  BX

last:
	KMOVB K3, R8
	NOTL  R8
	ANDL  BX, R8
	JNZ   slow
	KMOVB BX, K4
	ZIGVALUES(K4)
	ADDQ  CX, AX
	JMP   done

slow:
	// Fill the lanes before the first one that leaves the fast path and
	// stop there; the caller finishes that draw.
	BSFL  R8, CX
	MOVL  $1, BX
	SHLL  CX, BX
	DECL  BX
	KMOVB BX, K4
	ZIGVALUES(K4)
	ADDQ  CX, AX

done:
	VZEROUPPER

empty:
	// next = state + done·γ
	MOVQ  $0x9e3779b97f4a7c15, BX
	IMULQ AX, BX
	ADDQ  DX, BX
	MOVQ  AX, done+64(FP)
	MOVQ  BX, next+72(FP)
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
