//go:build amd64 && !purego

#include "textflag.h"

// AVX butterfly kernels. Each performs exactly the IEEE-754 operations of
// its Go loop in plan.go, two complex128 values per YMM register (one per
// XMM register in the span-1 and odd-length tails): separate VMULPD and
// VADDPD/VSUBPD/VADDSUBPD roundings, never a fused multiply-add, and no
// operation that mixes two complex values. R14, R15 and X15 are left alone
// (reserved by the Go internal ABI).

// CMUL sets D = X·W for the packed complex values of X and W:
// T1 = [wr, wr], T2 = [wi, wi], T3 = [xi, xr], and VADDSUBPD gives
// [xr·wr − xi·wi, xi·wr + xr·wi], Go's complex product bit for bit.
// D may not alias X or W; T1–T3 are clobbered.
#define CMUL(X, W, D, T1, T2, T3) \
	VMOVDDUP  W, T1       \
	VPERMILPD $0xF, W, T2 \
	VPERMILPD $0x5, X, T3 \
	VMULPD    T1, X, T1   \
	VMULPD    T2, T3, T2  \
	VADDSUBPD T2, T1, D

// CMUL1 is CMUL on one complex value in XMM registers.
#define CMUL1(X, W, D, T1, T2, T3) \
	VMOVDDUP  W, T1       \
	VPERMILPD $0x3, W, T2 \
	VPERMILPD $0x1, X, T3 \
	VMULPD    T1, X, T1   \
	VMULPD    T2, T3, T2  \
	VADDSUBPD T2, T1, D

// Sign masks for the ±i rotations of convMiddleAVX: flip the imaginary
// (lane 3) or the real (lane 2) part of the upper complex value.
DATA negLane3<>+0(SB)/8, $0
DATA negLane3<>+8(SB)/8, $0
DATA negLane3<>+16(SB)/8, $0
DATA negLane3<>+24(SB)/8, $0x8000000000000000
GLOBL negLane3<>(SB), RODATA|NOPTR, $32

DATA negLane2<>+0(SB)/8, $0
DATA negLane2<>+8(SB)/8, $0
DATA negLane2<>+16(SB)/8, $0x8000000000000000
DATA negLane2<>+24(SB)/8, $0
GLOBL negLane2<>(SB), RODATA|NOPTR, $32

// func ditStageAVX(x, w []complex128, h int)
//
// One decimation-in-time stage of half-span h over all of x: for every
// block of 2h values, lo[k], hi[k] = lo[k] + hi[k]·w[k], lo[k] − hi[k]·w[k].
TEXT ·ditStageAVX(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ w_base+24(FP), SI
	MOVQ h+48(FP), DX
	SHLQ $4, CX
	ADDQ DI, CX            // CX = end of x
	MOVQ DX, R8
	SHLQ $4, R8            // R8 = 16h, lo → hi
	CMPQ DX, $1
	JEQ  span1
	SHRQ $1, DX            // DX = YMM steps per block

block:
	MOVQ DI, AX
	MOVQ SI, BX
	MOVQ DX, R9
	CMPQ R9, $1
	JEQ  pair

pair2:
	VMOVUPD (AX)(R8*1), Y1
	VMOVUPD (BX), Y0
	VMOVUPD 32(AX)(R8*1), Y9
	VMOVUPD 32(BX), Y10
	CMUL(Y1, Y0, Y2, Y3, Y4, Y5)
	CMUL(Y9, Y10, Y11, Y12, Y13, Y14)
	VMOVUPD (AX), Y6
	VMOVUPD 32(AX), Y9
	VADDPD  Y2, Y6, Y7
	VSUBPD  Y2, Y6, Y8
	VADDPD  Y11, Y9, Y12
	VSUBPD  Y11, Y9, Y13
	VMOVUPD Y7, (AX)
	VMOVUPD Y8, (AX)(R8*1)
	VMOVUPD Y12, 32(AX)
	VMOVUPD Y13, 32(AX)(R8*1)
	ADDQ    $64, AX
	ADDQ    $64, BX
	SUBQ    $2, R9
	JNZ     pair2
	JMP     next

pair:
	VMOVUPD (AX)(R8*1), Y1
	VMOVUPD (BX), Y0
	CMUL(Y1, Y0, Y2, Y3, Y4, Y5)
	VMOVUPD (AX), Y6
	VADDPD  Y2, Y6, Y7
	VSUBPD  Y2, Y6, Y8
	VMOVUPD Y7, (AX)
	VMOVUPD Y8, (AX)(R8*1)

next:
	LEAQ    (DI)(R8*2), DI
	CMPQ    DI, CX
	JB      block
	VZEROUPPER
	RET

span1:
	VMOVUPD   (SI), X0
	VMOVDDUP  X0, X2
	VPERMILPD $0x3, X0, X3

one:
	VMOVUPD   16(DI), X1
	VPERMILPD $0x1, X1, X4
	VMULPD    X2, X1, X5
	VMULPD    X3, X4, X4
	VADDSUBPD X4, X5, X5
	VMOVUPD   (DI), X6
	VADDPD    X5, X6, X7
	VSUBPD    X5, X6, X8
	VMOVUPD   X7, (DI)
	VMOVUPD   X8, 16(DI)
	ADDQ      $32, DI
	CMPQ      DI, CX
	JB        one
	VZEROUPPER
	RET

// func difStageAVX(x, w []complex128, h int)
//
// One decimation-in-frequency stage of half-span h over all of x: for every
// block of 2h values, lo[k], hi[k] = lo[k] + hi[k], (lo[k] − hi[k])·w[k].
TEXT ·difStageAVX(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ w_base+24(FP), SI
	MOVQ h+48(FP), DX
	SHLQ $4, CX
	ADDQ DI, CX
	MOVQ DX, R8
	SHLQ $4, R8
	CMPQ DX, $1
	JEQ  span1
	SHRQ $1, DX

block:
	MOVQ DI, AX
	MOVQ SI, BX
	MOVQ DX, R9
	CMPQ R9, $1
	JEQ  pair

pair2:
	VMOVUPD (AX), Y6
	VMOVUPD (AX)(R8*1), Y1
	VMOVUPD 32(AX), Y9
	VMOVUPD 32(AX)(R8*1), Y10
	VADDPD  Y1, Y6, Y7
	VSUBPD  Y1, Y6, Y8
	VADDPD  Y10, Y9, Y11
	VSUBPD  Y10, Y9, Y12
	VMOVUPD (BX), Y0
	VMOVUPD 32(BX), Y13
	VMOVUPD Y7, (AX)
	VMOVUPD Y11, 32(AX)
	CMUL(Y8, Y0, Y2, Y3, Y4, Y5)
	CMUL(Y12, Y13, Y1, Y9, Y10, Y14)
	VMOVUPD Y2, (AX)(R8*1)
	VMOVUPD Y1, 32(AX)(R8*1)
	ADDQ    $64, AX
	ADDQ    $64, BX
	SUBQ    $2, R9
	JNZ     pair2
	JMP     next

pair:
	VMOVUPD (AX), Y6
	VMOVUPD (AX)(R8*1), Y1
	VMOVUPD (BX), Y0
	VADDPD  Y1, Y6, Y7
	VSUBPD  Y1, Y6, Y8
	CMUL(Y8, Y0, Y2, Y3, Y4, Y5)
	VMOVUPD Y7, (AX)
	VMOVUPD Y2, (AX)(R8*1)

next:
	LEAQ    (DI)(R8*2), DI
	CMPQ    DI, CX
	JB      block
	VZEROUPPER
	RET

span1:
	VMOVUPD   (SI), X0
	VMOVDDUP  X0, X2
	VPERMILPD $0x3, X0, X3

one:
	VMOVUPD   (DI), X6
	VMOVUPD   16(DI), X1
	VADDPD    X1, X6, X7
	VSUBPD    X1, X6, X8
	VPERMILPD $0x1, X8, X4
	VMULPD    X2, X8, X5
	VMULPD    X3, X4, X4
	VADDSUBPD X4, X5, X5
	VMOVUPD   X7, (DI)
	VMOVUPD   X5, 16(DI)
	ADDQ      $32, DI
	CMPQ      DI, CX
	JB        one
	VZEROUPPER
	RET

// func mulAVX(dst, a, w []complex128)
//
// dst[k] = a[k]·w[k] for k < len(dst): Convolve's pruned first stage.
TEXT ·mulAVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ w_base+48(FP), BX
	MOVQ CX, DX
	SHRQ $1, DX
	JZ   tail

loop:
	VMOVUPD (SI), Y1
	VMOVUPD (BX), Y0
	CMUL(Y1, Y0, Y2, Y3, Y4, Y5)
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, BX
	ADDQ    $32, DI
	DECQ    DX
	JNZ     loop

tail:
	TESTQ $1, CX
	JZ    done
	VMOVUPD (SI), X1
	VMOVUPD (BX), X0
	CMUL1(X1, X0, X2, X3, X4, X5)
	VMOVUPD X2, (DI)

done:
	VZEROUPPER
	RET

// func convMiddleAVX(x, spec []complex128)
//
// convMiddleGo on one block of four values per iteration, the block in two
// YMM registers [b0, b1] and [b2, b3]. VPERM2F128 regroups the values so
// each add, subtract and product of the Go loop happens in its own lane:
//
//	[y0, y1], [y2, d] = [b0, b1] ± [b2, b3];  y3 = d·(−i)
//	[z0, z2] = ([y0, y2] + [y1, y3])·[k0, k2]
//	[z1, z3] = ([y0, y2] − [y1, y3])·[k1, k3]
//	[u0, u2], [u1, e] = [z0, z2] ± [z1, z3];  v = e·i
//	[b0, b1], [b2, b3] = [u0, u1] ± [u2, v]
TEXT ·convMiddleAVX(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ spec_base+24(FP), SI
	SHRQ $2, CX
	JZ   done
	VMOVUPD negLane3<>(SB), Y14
	VMOVUPD negLane2<>(SB), Y13

loop:
	VMOVUPD    (DI), Y0
	VMOVUPD    32(DI), Y1
	VADDPD     Y1, Y0, Y2             // [y0, y1]
	VSUBPD     Y1, Y0, Y3             // [y2, d]
	VPERMILPD  $0x6, Y3, Y3           // [y2, (di, dr)]
	VXORPD     Y14, Y3, Y3            // [y2, y3]
	VPERM2F128 $0x20, Y3, Y2, Y4      // [y0, y2]
	VPERM2F128 $0x31, Y3, Y2, Y5      // [y1, y3]
	VADDPD     Y5, Y4, Y6
	VSUBPD     Y5, Y4, Y7
	VMOVUPD    (SI), Y8               // [k0, k1]
	VMOVUPD    32(SI), Y9             // [k2, k3]
	VPERM2F128 $0x20, Y9, Y8, Y10     // [k0, k2]
	VPERM2F128 $0x31, Y9, Y8, Y11     // [k1, k3]
	CMUL(Y6, Y10, Y4, Y0, Y1, Y12)    // [z0, z2]
	CMUL(Y7, Y11, Y5, Y0, Y1, Y12)    // [z1, z3]
	VADDPD     Y5, Y4, Y6             // [u0, u2]
	VSUBPD     Y5, Y4, Y7             // [u1, e]
	VPERMILPD  $0x6, Y7, Y7           // [u1, (ei, er)]
	VXORPD     Y13, Y7, Y7            // [u1, v]
	VPERM2F128 $0x20, Y7, Y6, Y8      // [u0, u1]
	VPERM2F128 $0x31, Y7, Y6, Y9      // [u2, v]
	VADDPD     Y9, Y8, Y0
	VSUBPD     Y9, Y8, Y1
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, 32(DI)
	ADDQ       $64, DI
	ADDQ       $64, SI
	DECQ       CX
	JNZ        loop

done:
	VZEROUPPER
	RET

// func scalePartsAVX(z []complex128, sr, si float64)
//
// z[p] = complex(real(z[p])·sr, imag(z[p])·si): one VMULPD by [sr, si, sr, si].
TEXT ·scalePartsAVX(SB), NOSPLIT, $0-40
	MOVQ        z_base+0(FP), DI
	MOVQ        z_len+8(FP), CX
	VMOVSD      sr+24(FP), X0
	VMOVSD      si+32(FP), X1
	VUNPCKLPD   X1, X0, X0
	VINSERTF128 $1, X0, Y0, Y0
	MOVQ        CX, DX
	SHRQ        $1, DX
	JZ          tail

loop:
	VMOVUPD (DI), Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI
	DECQ    DX
	JNZ     loop

tail:
	TESTQ   $1, CX
	JZ      done
	VMOVUPD (DI), X1
	VMULPD  X0, X1, X1
	VMOVUPD X1, (DI)

done:
	VZEROUPPER
	RET

// func addPartAVX(dst []float64, z []complex128, u float64, part int)
//
// dst[r] += real(z[r])·u (part 0) or imag(z[r])·u (part 1) for r < len(dst):
// four values per step, de-interleaved by VPERM2F128 and VUNPCKLPD/VUNPCKHPD.
TEXT ·addPartAVX(SB), NOSPLIT, $0-64
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         z_base+24(FP), SI
	VBROADCASTSD u+48(FP), Y12
	MOVQ         part+56(FP), AX
	MOVQ         CX, DX
	SHRQ         $2, DX
	JZ           tail
	TESTQ        AX, AX
	JNZ          imagloop

realloop:
	VMOVUPD    (SI), Y0
	VMOVUPD    32(SI), Y1
	VPERM2F128 $0x20, Y1, Y0, Y2
	VPERM2F128 $0x31, Y1, Y0, Y3
	VUNPCKLPD  Y3, Y2, Y4
	VMULPD     Y12, Y4, Y4
	VMOVUPD    (DI), Y5
	VADDPD     Y4, Y5, Y5
	VMOVUPD    Y5, (DI)
	ADDQ       $64, SI
	ADDQ       $32, DI
	DECQ       DX
	JNZ        realloop
	JMP        tail

imagloop:
	VMOVUPD    (SI), Y0
	VMOVUPD    32(SI), Y1
	VPERM2F128 $0x20, Y1, Y0, Y2
	VPERM2F128 $0x31, Y1, Y0, Y3
	VUNPCKHPD  Y3, Y2, Y4
	VMULPD     Y12, Y4, Y4
	VMOVUPD    (DI), Y5
	VADDPD     Y4, Y5, Y5
	VMOVUPD    Y5, (DI)
	ADDQ       $64, SI
	ADDQ       $32, DI
	DECQ       DX
	JNZ        imagloop

tail:
	ANDQ $3, CX
	JZ   done
	SHLQ $3, AX
	ADDQ AX, SI              // the real or imaginary part of z[r]

tail1:
	VMOVSD (SI), X0
	VMULSD X12, X0, X0
	VMOVSD (DI), X1
	VADDSD X0, X1, X1
	VMOVSD X1, (DI)
	ADDQ   $16, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    tail1

done:
	VZEROUPPER
	RET
