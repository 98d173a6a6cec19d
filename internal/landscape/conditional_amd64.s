#include "textflag.h"
#include "go_asm.h"

// The dword offsets of a coupling table's column: cell [a][b] lies a·20
// cells after [0][b]. Sixteen rows gather into one register, the last
// four into another.
DATA condColumn<>+0(SB)/4, $0
DATA condColumn<>+4(SB)/4, $20
DATA condColumn<>+8(SB)/4, $40
DATA condColumn<>+12(SB)/4, $60
DATA condColumn<>+16(SB)/4, $80
DATA condColumn<>+20(SB)/4, $100
DATA condColumn<>+24(SB)/4, $120
DATA condColumn<>+28(SB)/4, $140
DATA condColumn<>+32(SB)/4, $160
DATA condColumn<>+36(SB)/4, $180
DATA condColumn<>+40(SB)/4, $200
DATA condColumn<>+44(SB)/4, $220
DATA condColumn<>+48(SB)/4, $240
DATA condColumn<>+52(SB)/4, $260
DATA condColumn<>+56(SB)/4, $280
DATA condColumn<>+60(SB)/4, $300
DATA condColumn<>+64(SB)/4, $320
DATA condColumn<>+68(SB)/4, $340
DATA condColumn<>+72(SB)/4, $360
DATA condColumn<>+76(SB)/4, $380
GLOBL condColumn<>(SB), RODATA|NOPTR, $80

// func conditionalAVX512(out *[20]float64, field *[20]float32, adj []halfEdge, full []byte) (ok bool)
//
// The 20 sums are held as float64 in Z0 (residues 0–7), Z1 (8–15) and
// Y2 (16–19). Each half-edge converts its 20 float32 cells with
// VCVTPS2PD and adds them lane by lane with VADDPD, in adjacency order.
TEXT ·conditionalAVX512(SB), NOSPLIT, $0-65
	MOVQ out+0(FP), DI
	MOVQ field+8(FP), SI
	MOVQ adj_base+16(FP), R8
	MOVQ adj_len+24(FP), CX
	MOVQ full_base+40(FP), DX
	LEAQ ·residueIndex(SB), R11

	VCVTPS2PD (SI), Z0
	VCVTPS2PD 32(SI), Z1
	VCVTPS2PD 64(SI), Y2
	VMOVDQU32 condColumn<>(SB), Z30
	VMOVDQU32 condColumn<>+64(SB), X31
	TESTQ     CX, CX
	JZ        store

loop:
	// b: the residue index at the far end, which must be below 20.
	MOVQ    halfEdge_w(R8), R9
	MOVLQSX halfEdge_other(R8), R10
	MOVBLZX (DX)(R10*1), R10
	MOVBLZX (R11)(R10*1), R10
	CMPL    R10, $20
	JAE     bad
	CMPB    halfEdge_col(R8), $0
	JNE     column

	// The row W[b][·]: 20 contiguous cells at w + 80·b.
	IMUL3Q    $80, R10, R10
	ADDQ      R10, R9
	VCVTPS2PD (R9), Z3
	VCVTPS2PD 32(R9), Z4
	VCVTPS2PD 64(R9), Y5
	JMP       add

column:
	// The column W[·][b]: 20 cells at w + 4·b, 80 bytes apart.
	LEAQ      (R9)(R10*4), R9
	VMOVSS    0(R9), X6
	VINSERTPS $0x10, 80(R9), X6, X6
	VINSERTPS $0x20, 160(R9), X6, X6
	VINSERTPS $0x30, 240(R9), X6, X6
	VMOVSS    320(R9), X7
	VINSERTPS $0x10, 400(R9), X7, X7
	VINSERTPS $0x20, 480(R9), X7, X7
	VINSERTPS $0x30, 560(R9), X7, X7
	VINSERTF128 $1, X7, Y6, Y6
	VCVTPS2PD Y6, Z3
	VMOVSS    640(R9), X6
	VINSERTPS $0x10, 720(R9), X6, X6
	VINSERTPS $0x20, 800(R9), X6, X6
	VINSERTPS $0x30, 880(R9), X6, X6
	VMOVSS    960(R9), X7
	VINSERTPS $0x10, 1040(R9), X7, X7
	VINSERTPS $0x20, 1120(R9), X7, X7
	VINSERTPS $0x30, 1200(R9), X7, X7
	VINSERTF128 $1, X7, Y6, Y6
	VCVTPS2PD Y6, Z4
	VMOVSS    1280(R9), X5
	VINSERTPS $0x10, 1360(R9), X5, X5
	VINSERTPS $0x20, 1440(R9), X5, X5
	VINSERTPS $0x30, 1520(R9), X5, X5
	VCVTPS2PD X5, Y5

add:
	VADDPD Z3, Z0, Z0
	VADDPD Z4, Z1, Z1
	VADDPD Y5, Y2, Y2
	ADDQ   $halfEdge__size, R8
	DECQ   CX
	JNZ    loop

store:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Y2, 128(DI)
	VZEROUPPER
	MOVB    $1, ok+64(FP)
	RET

bad:
	VZEROUPPER
	MOVB $0, ok+64(FP)
	RET
