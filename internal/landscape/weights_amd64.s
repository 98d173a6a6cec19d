#include "textflag.h"

// The lane constants of weightsAVX512: the sign bit, the argument bound,
// then the constants of the FMA path of amd64's math.Exp
// ($GOROOT/src/math/exp_amd64.s) in the order boltzmann uses them.
DATA weightsConst<>+0(SB)/8, $0x8000000000000000
DATA weightsConst<>+8(SB)/8, $708.0
DATA weightsConst<>+16(SB)/8, $1.4426950408889634073599246810018920
DATA weightsConst<>+24(SB)/8, $0.69314718055966295651160180568695068359375
DATA weightsConst<>+32(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA weightsConst<>+40(SB)/8, $0.0625
DATA weightsConst<>+48(SB)/8, $2.4801587301587301587e-5
DATA weightsConst<>+56(SB)/8, $1.9841269841269841270e-4
DATA weightsConst<>+64(SB)/8, $1.3888888888888888889e-3
DATA weightsConst<>+72(SB)/8, $8.3333333333333333333e-3
DATA weightsConst<>+80(SB)/8, $4.1666666666666666667e-2
DATA weightsConst<>+88(SB)/8, $1.6666666666666666667e-1
DATA weightsConst<>+96(SB)/8, $0.5
DATA weightsConst<>+104(SB)/8, $1.0
DATA weightsConst<>+112(SB)/8, $2.0
GLOBL weightsConst<>(SB), RODATA|NOPTR, $120

// WEIGHTS computes the weights of the lanes of cond at byte offset off
// that mask selects, and stores them at the same offset of w. It runs
// boltzmann's steps on each lane: the argument reduction by
// k = round(x·log2e) in two fused steps, the polynomial in fused steps,
// the four squarings, and the scale by 2**k (VSCALEFPD, one rounding, as
// boltzmann's multiply by 2**k). Lanes whose |x| is not at most 708, NaN
// included, are added to K3; the others need none of boltzmann's tails.
#define WEIGHTS(off, mask) \
	VMOVUPD.Z    off(SI), mask, Z0 \ // e
	VSUBPD       Z16, Z0, Z1       \ // e - minE
	VXORPD       Z18, Z1, Z1       \ // -(e - minE)
	VDIVPD       Z17, Z1, Z1       \ // x = -(e - minE)/temp
	VANDNPD      Z1, Z18, Z2       \ // |x|
	VCMPPD       $0x16, Z19, Z2, mask, K1 \ // !(|x| <= 708): NLE_UQ
	KORW         K1, K3, K3        \
	VMULPD       Z20, Z1, Z2       \ // x·log2e
	VRNDSCALEPD  $0, Z2, Z2        \ // k, to nearest, ties to even
	VFNMADD231PD Z21, Z2, Z1       \ // r = x - k·ln2Hi
	VFNMADD231PD Z22, Z2, Z1       \ // r -= k·ln2Lo
	VMULPD       Z23, Z1, Z1       \ // r /= 16
	VMOVAPD      Z24, Z3           \ // p = 1/8!
	VFMADD213PD  Z25, Z1, Z3       \ // p = p·r + 1/7!
	VFMADD213PD  Z26, Z1, Z3       \
	VFMADD213PD  Z27, Z1, Z3       \
	VFMADD213PD  Z28, Z1, Z3       \
	VFMADD213PD  Z29, Z1, Z3       \
	VFMADD213PD  Z30, Z1, Z3       \ // ... + 1/2
	VFMADD213PD  Z15, Z1, Z3       \ // ... + 1
	VMULPD       Z3, Z1, Z1        \ // r *= p
	VADDPD       Z14, Z1, Z3       \
	VMULPD       Z3, Z1, Z1        \ // r *= r + 2
	VADDPD       Z14, Z1, Z3       \
	VMULPD       Z3, Z1, Z1        \
	VADDPD       Z14, Z1, Z3       \
	VMULPD       Z3, Z1, Z1        \
	VADDPD       Z14, Z1, Z3       \
	VFMADD213PD  Z15, Z3, Z1       \ // r = r·(r + 2) + 1
	VSCALEFPD    Z2, Z1, Z1        \ // r·2**k
	VCMPPD       $0, Z16, Z0, K2   \ // e == minE: EQ_OQ
	VMOVAPD      Z15, K2, Z1       \ // exactly 1 there
	VMOVUPD      Z1, mask, off(DI)

// func weightsAVX512(w, cond *[20]float64, minE, temp float64) (ok bool)
//
// The 20 weights are three blocks: lanes 0–7, 8–15 and, under the mask
// K4, 16–19. It returns false, with w written, when a lane's argument
// falls outside [-708, 708] or is NaN; boltzmannWeights then runs the Go
// loop, which takes boltzmann's tails.
TEXT ·weightsAVX512(SB), NOSPLIT, $0-33
	MOVQ w+0(FP), DI
	MOVQ cond+8(FP), SI
	VBROADCASTSD minE+16(FP), Z16
	VBROADCASTSD temp+24(FP), Z17
	LEAQ weightsConst<>(SB), AX
	VBROADCASTSD 0(AX), Z18
	VBROADCASTSD 8(AX), Z19
	VBROADCASTSD 16(AX), Z20
	VBROADCASTSD 24(AX), Z21
	VBROADCASTSD 32(AX), Z22
	VBROADCASTSD 40(AX), Z23
	VBROADCASTSD 48(AX), Z24
	VBROADCASTSD 56(AX), Z25
	VBROADCASTSD 64(AX), Z26
	VBROADCASTSD 72(AX), Z27
	VBROADCASTSD 80(AX), Z28
	VBROADCASTSD 88(AX), Z29
	VBROADCASTSD 96(AX), Z30
	VBROADCASTSD 104(AX), Z15
	VBROADCASTSD 112(AX), Z14
	MOVL  $0xff, AX
	KMOVW AX, K5
	MOVL  $0x0f, AX
	KMOVW AX, K4
	KXORW K3, K3, K3

	WEIGHTS(0, K5)
	WEIGHTS(64, K5)
	WEIGHTS(128, K4)

	VZEROUPPER
	KORTESTW K3, K3
	SETEQ    ok+32(FP)
	RET
