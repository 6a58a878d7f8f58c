#include "textflag.h"

// scoreGrids on AVX2: each lane is one grid, and each lane runs the Go
// kernel's per-element operations in the Go kernel's order (see
// kernel.go), so each lane's sum is the Go kernel's bit for bit. No FMA:
// every product is rounded before its add. Each entry also keeps every
// element's codes, one byte a lane, eight bytes an element, at KEPT; the
// two-lane entry keeps none where KEPT is nil.
//
// Registers, lanes 0-3 (set A) / lanes 4-7 (set B):
//   X1 / X5   zero points, float32
//   Y2 / Y6   steps, float64
//   Y3 / Y7   zero points, float64
//   Y4 / Y8   sums
//   Y13 0.5 in every lane, Y14 +0, Y15 maxCode+0.5
//   X0 / Y9   the element, float32 / float64; Y10, Y11 temporaries
//   X12 / X0  set A's / set B's codes, int32; DX where they go

// gridLanes' field offsets (kernel_amd64.go; TestGridLanesLayout).
#define ZERO 0
#define STEP 32
#define CAP 64
#define SUM 72
#define FLOORLO 136
#define FLOORTOP 152
#define FLOOR 168
#define KEPT 184

// SETUP loads the constants and set A, and points SI at x with CX
// elements left and DX at the kept codes.
#define SETUP \
	MOVQ x_base+0(FP), SI; \
	MOVQ x_len+8(FP), CX; \
	MOVQ l+24(FP), DI; \
	MOVQ KEPT(DI), DX; \
	MOVQ $0x3fe0000000000000, AX; \
	MOVQ AX, X13; \
	VBROADCASTSD X13, Y13; \
	VXORPD Y14, Y14, Y14; \
	VBROADCASTSD CAP(DI), Y15; \
	VMOVUPS ZERO(DI), X1; \
	VCVTPS2PD STEP(DI), Y2; \
	VCVTPS2PD X1, Y3; \
	VXORPD Y4, Y4, Y4

// SQERR turns the element in X0 and Y9 into lane-wise squared errors in
// Yc and codes in Xk: c = float64(v-zero)/scale; k = trunc(min(max(c+0.5,
// +0), cap)); d = float64(v) - (float64(scale*k) + zero). VMAXPD's second
// source is the +0 register, which it returns when the first is NaN or
// -0: both land on code 0 (kernel.go says why that is roundCode's code
// too). X0 is read only by the first instruction, so Xk may be X0.
#define SQERR(Xz, Ys, Yz, Xc, Yc, Xk) \
	VSUBPS Xz, X0, Xc; \
	VCVTPS2PD Xc, Yc; \
	VDIVPD Ys, Yc, Yc; \
	VADDPD Y13, Yc, Yc; \
	VMAXPD Y14, Yc, Yc; \
	VMINPD Y15, Yc, Yc; \
	VCVTTPD2DQY Yc, Xk; \
	VCVTDQ2PD Xk, Yc; \
	VMULPD Ys, Yc, Yc; \
	VADDPD Yz, Yc, Yc; \
	VSUBPD Yc, Y9, Yc; \
	VMULPD Yc, Yc, Yc

// KEEP narrows set A's int32 codes in X12 and set B's in Xb (X12 again
// where there is no set B) to bytes in X12, lane i at byte i: codes
// 0-255 pass both saturating packs unchanged.
#define KEEP(Xb) \
	VPACKUSDW Xb, X12, X12; \
	VPACKUSWB X12, X12, X12

// PAIR2 turns two elements, f in Y9 as (e, e, e+1, e+1) and v in X0 as
// float32 the same way, into squared errors in Y10 and, rounded to whole
// numbers, codes in Y11, lanes (g0,e), (g1,e), (g0,e+1), (g1,e+1); and the
// floor terms d*d in Y12. SQERR's operations, with VROUNDPD $3 for the
// truncation: c is in [0, cap] after the clamp, where truncating to a
// double and through int32 agree.
#define PAIR2 \
	VSUBPS    X1, X0, X10; \
	VCVTPS2PD X10, Y10; \
	VDIVPD    Y2, Y10, Y10; \
	VADDPD    Y13, Y10, Y10; \
	VMAXPD    Y14, Y10, Y10; \
	VMINPD    Y15, Y10, Y10; \
	VROUNDPD  $3, Y10, Y11; \
	VMULPD    Y2, Y11, Y10; \
	VADDPD    Y3, Y10, Y10; \
	VSUBPD    Y10, Y9, Y10; \
	VMULPD    Y10, Y10, Y10; \
	VSUBPD    Y9, Y5, Y12; \
	VSUBPD    Y6, Y9, Y8; \
	VMAXPD    Y14, Y12, Y12; \
	VMAXPD    Y14, Y8, Y8; \
	VADDPD    Y8, Y12, Y12; \
	VMULPD    Y12, Y12, Y12

// func scoreGrids2AVX2(x []float32, l *gridLanes)
//
// Two grids, two elements a step: lanes (g0,e), (g1,e), (g0,e+1),
// (g1,e+1) of YMM registers, and the same lanes for the two floor ranges:
// clipFloor's sum of d*d, d = max(lo-f, +0) + max(f-top, +0) with f =
// float64(v), for the floor ranges' float64 bottoms and tops
// (clipBounds). VMAXPD answers nonNeg's +0 for a -0 or negative first
// source. Each sum and each floor adds element e's lanes before element
// e+1's, so every chain runs in element order; an odd last element runs
// alone, in the low halves. Codes are kept (eight bytes an element, lanes
// 0-1) only where KEPT is not nil: a walk step keeps none.
TEXT ·scoreGrids2AVX2(SB), NOSPLIT, $0-32
	MOVQ           x_base+0(FP), SI
	MOVQ           x_len+8(FP), CX
	MOVQ           l+24(FP), DI
	MOVQ           KEPT(DI), DX
	MOVQ           $0x3fe0000000000000, AX
	VMOVQ          AX, X13
	VBROADCASTSD   X13, Y13
	VXORPD         Y14, Y14, Y14
	VBROADCASTSD   CAP(DI), Y15
	VMOVQ          ZERO(DI), X1
	VMOVDDUP       X1, X1
	VMOVQ          STEP(DI), X2
	VMOVDDUP       X2, X2
	VCVTPS2PD      X2, Y2
	VCVTPS2PD      X1, Y3
	VXORPD         X4, X4, X4
	VBROADCASTF128 FLOORLO(DI), Y5
	VBROADCASTF128 FLOORTOP(DI), Y6
	VXORPD         X7, X7, X7
	MOVQ           CX, BX
	SHRQ           $1, BX
	JZ             odd2

pairs2:
	VMOVQ        (SI), X0
	VPERMILPS    $0x50, X0, X0
	VCVTPS2PD    X0, Y9
	PAIR2
	VADDPD       X10, X4, X4
	VEXTRACTF128 $1, Y10, X10
	VADDPD       X10, X4, X4
	VADDPD       X12, X7, X7
	VEXTRACTF128 $1, Y12, X12
	VADDPD       X12, X7, X7
	TESTQ        DX, DX
	JZ           next2
	VCVTTPD2DQY  Y11, X11
	VPACKUSDW    X11, X11, X11
	VPACKUSWB    X11, X11, X11
	VPMOVZXWQ    X11, X11
	VMOVDQU      X11, (DX)
	ADDQ         $16, DX

next2:
	ADDQ $8, SI
	DECQ BX
	JNZ  pairs2

odd2:
	TESTQ        $1, CX
	JZ           done2
	VBROADCASTSS (SI), X0
	VCVTPS2PD    X0, Y9
	PAIR2
	VADDPD       X10, X4, X4
	VADDPD       X12, X7, X7
	TESTQ        DX, DX
	JZ           done2
	VCVTTPD2DQY  Y11, X11
	VPACKUSDW    X11, X11, X11
	VPACKUSWB    X11, X11, X11
	VPMOVZXWQ    X11, X11
	VMOVQ        X11, (DX)

done2:
	VMOVUPD X4, SUM(DI)
	VMOVUPD X7, FLOOR(DI)
	VZEROUPPER
	RET

// func scoreGrids4AVX2(x []float32, l *gridLanes)
TEXT ·scoreGrids4AVX2(SB), NOSPLIT, $0-32
	SETUP
	TESTQ CX, CX
	JZ    done4

loop4:
	VBROADCASTSS (SI), X0
	VCVTPS2PD    X0, Y9
	SQERR(X1, Y2, Y3, X10, Y10, X12)
	VADDPD       Y10, Y4, Y4
	KEEP(X12)
	VMOVD        X12, (DX)
	ADDQ         $8, DX
	ADDQ         $4, SI
	DECQ         CX
	JNZ          loop4

done4:
	VMOVUPD Y4, SUM(DI)
	VZEROUPPER
	RET

// func scoreGrids8AVX2(x []float32, l *gridLanes)
TEXT ·scoreGrids8AVX2(SB), NOSPLIT, $0-32
	SETUP
	VMOVUPS   ZERO+16(DI), X5
	VCVTPS2PD STEP+16(DI), Y6
	VCVTPS2PD X5, Y7
	VXORPD    Y8, Y8, Y8
	TESTQ     CX, CX
	JZ        done8

loop8:
	VBROADCASTSS (SI), X0
	VCVTPS2PD    X0, Y9
	SQERR(X1, Y2, Y3, X10, Y10, X12)
	SQERR(X5, Y6, Y7, X11, Y11, X0)
	VADDPD       Y10, Y4, Y4
	VADDPD       Y11, Y8, Y8
	KEEP(X0)
	VMOVQ        X12, (DX)
	ADDQ         $8, DX
	ADDQ         $4, SI
	DECQ         CX
	JNZ          loop8

done8:
	VMOVUPD Y4, SUM(DI)
	VMOVUPD Y8, SUM+32(DI)
	VZEROUPPER
	RET

// MINMAX8 folds the eight elements in Y3 into the least (Y0), the
// greatest (Y1) and the sum of v-v (Y2).
#define MINMAX8 \
	VMINPS Y3, Y0, Y0; \
	VMAXPS Y3, Y1, Y1; \
	VSUBPS Y3, Y3, Y3; \
	VADDPS Y3, Y2, Y2

// FOLD8 folds Y's eight lanes into X's lane 0 by OP: halves, then
// pairs, then neighbours.
#define FOLD8(OP, Y, X) \
	VEXTRACTF128 $1, Y, X3; \
	OP X3, X, X; \
	VPERMILPS $0x4e, X, X3; \
	OP X3, X, X; \
	VPERMILPS $0xb1, X, X3; \
	OP X3, X, X

// func minMaxAVX2(x []float32) (lo, hi, nonFinite float32)
//
// x's least and greatest elements and the sum of every v-v, for a
// len(x) >= 8: groups of eight from the start, then the eight that end
// x, overlapping the last group where len(x) is not a multiple of 8 (an
// element seen twice changes no answer). nonFinite is 0 exactly when
// every element is finite. Between equal operands VMINPS and VMAXPS
// answer by position, so -0 and +0 may come back either way.
TEXT ·minMaxAVX2(SB), NOSPLIT, $0-36
	MOVQ    x_base+0(FP), SI
	MOVQ    x_len+8(FP), CX
	LEAQ    -32(SI)(CX*4), DX
	VMOVUPS (SI), Y0
	VMOVAPS Y0, Y1
	VSUBPS  Y0, Y0, Y2
	ADDQ    $32, SI

groups:
	CMPQ    SI, DX
	JAE     last
	VMOVUPS (SI), Y3
	MINMAX8
	ADDQ    $32, SI
	JMP     groups

last:
	VMOVUPS      (DX), Y3
	MINMAX8
	FOLD8(VMINPS, Y0, X0)
	FOLD8(VMAXPS, Y1, X1)
	FOLD8(VADDPS, Y2, X2)
	VMOVSS       X0, lo+24(FP)
	VMOVSS       X1, hi+28(FP)
	VMOVSS       X2, nonFinite+32(FP)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// dequantize4AVX2's lane indices for eight codes: code 2k is dword 2k's
// bits 0-3 and code 2k+1 dword 2k+1's. VPERMPS reads bits 0-2 of each
// index; VPSLLD $28 moves bit 3 to the sign, where VBLENDVPS reads it.
//   Y2 / Y3   levels 0-7 / 8-15
//   Y4        indices, then the blend mask; Y5, Y6 the picked levels
#define PICK8 \
	VPMOVZXBQ (SI), Y4; \
	VPSRLQ    $4, Y4, Y5; \
	VPSLLQ    $32, Y5, Y5; \
	VPOR      Y5, Y4, Y4; \
	VPERMPS   Y2, Y4, Y5; \
	VPERMPS   Y3, Y4, Y6; \
	VPSLLD    $28, Y4, Y4; \
	VBLENDVPS Y4, Y6, Y5, Y5

// func dequantize4AVX2(dst []float32, codes []byte, scale, lo float32)
//
// Writes len(dst)/8 groups of eight values, four code bytes each, into
// a dst that starts on a 32-byte boundary. The sixteen levels are
// scale*c rounded, then + lo rounded, as level() computes them; no FMA.
// The stores bypass the cache (VMOVNTPS), so the caller fences before
// it publishes the row (storeFence). Every instruction is VEX-encoded
// (VMOVQ, not MOVQ to an X register): one legacy SSE instruction after
// a YMM write costs an SSE/AVX transition per call, which made the
// kernel slower than the Go loop.
TEXT ·dequantize4AVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ codes_base+24(FP), SI
	SHRQ $3, CX
	JZ   done

	VBROADCASTSS scale+48(FP), Y0
	VBROADCASTSS lo+52(FP), Y1
	MOVQ         $0x0706050403020100, AX
	VMOVQ        AX, X2
	VPMOVZXBD    X2, Y2
	VCVTDQ2PS    Y2, Y2
	VMULPS       Y0, Y2, Y2
	VADDPS       Y1, Y2, Y2
	MOVQ         $0x0f0e0d0c0b0a0908, AX
	VMOVQ        AX, X3
	VPMOVZXBD    X3, Y3
	VCVTDQ2PS    Y3, Y3
	VMULPS       Y0, Y3, Y3
	VADDPS       Y1, Y3, Y3

stream:
	PICK8
	VMOVNTPS Y5, (DI)
	ADDQ     $4, SI
	ADDQ     $32, DI
	DECQ     CX
	JNZ      stream

done:
	VZEROUPPER
	RET

// func copyF32AVX2(dst []float32, src []byte)
//
// Copies len(dst)/8 32-byte blocks of src, fp32 values as PutRawF32
// stores them, into a dst on a 32-byte boundary: unaligned loads,
// streaming stores (VMOVNTDQ), which the caller fences (storeFence).
TEXT ·copyF32AVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	SHRQ $3, CX
	JZ   copied

copy:
	VMOVDQU  (SI), Y0
	VMOVNTDQ Y0, (DI)
	ADDQ     $32, SI
	ADDQ     $32, DI
	DECQ     CX
	JNZ      copy

copied:
	VZEROUPPER
	RET

// func storeFence()
TEXT ·storeFence(SB), NOSPLIT, $0-0
	SFENCE
	RET

// func Prefetch(x []float32)
//
// PREFETCHT0 at every 64-byte line x spans, from the line of its first
// byte to the line of its last.
TEXT ·Prefetch(SB), NOSPLIT, $0-24
	MOVQ  x_base+0(FP), SI
	MOVQ  x_len+8(FP), CX
	TESTQ CX, CX
	JZ    fetched
	LEAQ  -1(SI)(CX*4), DX
	ANDQ  $-64, SI

fetch:
	PREFETCHT0 (SI)
	ADDQ       $64, SI
	CMPQ       SI, DX
	JLS        fetch

fetched:
	RET
