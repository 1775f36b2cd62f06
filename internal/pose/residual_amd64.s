#include "go_asm.h"
#include "textflag.h"

// The SSE2 kernel of the pose objective's pair loop. Two pairs per
// instruction: each lane runs, operation for operation, the float64 chain of
// pairGeometry.residual and acos (pose.go) with no step fused or
// reassociated, so each lane has the bits of the Go call. The branches of
// the Go code are mask selects here: both arccos terms are always computed,
// a pair's degenerate flags are the AND of its endpoints' ptDir masks, and
// the early return at residualCap picks the cap over the lane's sum, so a
// NaN in the term Go skips never reaches the result. The sum is serial, in
// pair order: lane 0 is added and compared with the limit, then lane 1.
// Which of two NaNs of different bits passes an addition or a product is
// not fixed by Go either, and the objective makes only one NaN, ∞·0.

// Both lanes of every constant; 16-byte symbols are 16-byte aligned, as
// the memory operands of the packed SSE2 instructions require.
#define CONST2(name, bits) DATA name<>+0(SB)/8, $bits; DATA name<>+8(SB)/8, $bits; GLOBL name<>(SB), RODATA|NOPTR, $16

CONST2(absMask, 0x7fffffffffffffff)
CONST2(zero, 0x0000000000000000)
CONST2(one, 0x3ff0000000000000)
CONST2(half, 0x3fe0000000000000)
CONST2(pi, 0x400921fb54442d18)
CONST2(residualCap, 0x3fe0000000000000) // 0.5
CONST2(acosP0, 0xbf54af457f1a7a45)      // -0.0012624911
CONST2(acosP1, 0x3f7b5218ad7437a2)      // 0.0066700901
CONST2(acosP2, 0x3f917f8cb268630f)      // 0.0170881256, subtracted
CONST2(acosP3, 0x3f9fa21f0a6d7d6d)      // 0.0308918810
CONST2(acosP4, 0x3fa9b0724ab68cb8)      // 0.0501743046, subtracted
CONST2(acosP5, 0x3fb6c753b0ea08c1)      // 0.0889789874
CONST2(acosP6, 0x3fcb77f93950ff58)      // 0.2145988016, subtracted
CONST2(acosP7, 0x3ff921fb4e6a7138)      // 1.5707963050

// ACOS(x, r, t, u) sets r = acos(x) in both lanes: ax = min(1, |x|), where
// MINPD's second operand passes when either is NaN, so a NaN |x| comes
// through as Go's ax > 1 test lets it; p = P7(ax) by seven multiply-adds;
// sqrt(1-ax)*p; and π minus that where x < 0, an ordered compare that is
// false for -0 and NaN as Go's is. x is kept; t and u are clobbered.
#define ACOS(x, r, t, u) \
	MOVAPD x, t; \
	ANDPD  absMask<>(SB), t; \
	MOVUPD one<>(SB), r; \
	MINPD  t, r; \
	MOVUPD acosP0<>(SB), t; \
	MULPD  r, t; \
	ADDPD  acosP1<>(SB), t; \
	MULPD  r, t; \
	SUBPD  acosP2<>(SB), t; \
	MULPD  r, t; \
	ADDPD  acosP3<>(SB), t; \
	MULPD  r, t; \
	SUBPD  acosP4<>(SB), t; \
	MULPD  r, t; \
	ADDPD  acosP5<>(SB), t; \
	MULPD  r, t; \
	SUBPD  acosP6<>(SB), t; \
	MULPD  r, t; \
	ADDPD  acosP7<>(SB), t; \
	MOVUPD one<>(SB), u; \
	SUBPD  r, u; \
	SQRTPD u, u; \
	MULPD  t, u; \
	MOVUPD pi<>(SB), r; \
	SUBPD  u, r; \
	MOVAPD x, t; \
	CMPPD  zero<>(SB), t, $1; \
	ANDPD  t, r; \
	ANDNPD u, t; \
	ORPD   t, r

// TERM(dot, g, ok, r, t, u) sets r to one residual term in both lanes:
// |acos(dot) - g| where the lane's flag ok is set, π where it is clear.
// ok is clobbered, with t and u.
#define TERM(dot, g, ok, r, t, u) \
	ACOS(dot, r, t, u); \
	SUBPD  g, r; \
	ANDPD  absMask<>(SB), r; \
	ANDPD  ok, r; \
	ANDNPD pi<>(SB), ok; \
	ORPD   ok, r

// func pairSum2(pairs []pairGeometry, dirs []ptDir, limit float64) (s float64)
TEXT ·pairSum2(SB), NOSPLIT, $0-64
	MOVQ   pairs_base+0(FP), SI
	MOVQ   pairs_len+8(FP), CX
	MOVQ   dirs_base+24(FP), DI
	MOVSD  limit+48(FP), X15
	XORPD  X14, X14                // s
	MOVUPD residualCap<>(SB), X13
	SHRQ   $1, CX
	JZ     done

loop:
	// Endpoints: lane 0 is pair SI, lane 1 the pair after it.
	MOVL  pairGeometry_ia(SI), R8
	MOVL  pairGeometry_ib(SI), R9
	MOVL  (pairGeometry__size+pairGeometry_ia)(SI), R10
	MOVL  (pairGeometry__size+pairGeometry_ib)(SI), R11
	IMULQ $ptDir__size, R8
	IMULQ $ptDir__size, R9
	IMULQ $ptDir__size, R10
	IMULQ $ptDir__size, R11
	ADDQ  DI, R8                   // a0
	ADDQ  DI, R9                   // b0
	ADDQ  DI, R10                  // a1
	ADDQ  DI, R11                  // b1

	// dot3 = ux·ux + uy·uy + uz·uz and dotx = hx·hx + hz·hz, in Go's order.
	// Each lane multiplies its endpoints' (ux, uy) and (uz, hx) halves, and
	// the unpacks regroup the products by term.
	MOVUPD   ptDir_ux(R8), X0
	MOVUPD   ptDir_ux(R9), X1
	MULPD    X1, X0
	MOVUPD   ptDir_ux(R10), X2
	MOVUPD   ptDir_ux(R11), X3
	MULPD    X3, X2
	MOVAPD   X0, X1
	UNPCKLPD X2, X0                // ux·ux
	UNPCKHPD X2, X1                // uy·uy
	ADDPD    X1, X0
	MOVUPD   ptDir_uz(R8), X1
	MOVUPD   ptDir_uz(R9), X2
	MULPD    X2, X1
	MOVUPD   ptDir_uz(R10), X2
	MOVUPD   ptDir_uz(R11), X3
	MULPD    X3, X2
	MOVAPD   X1, X3
	UNPCKLPD X2, X1                // uz·uz
	UNPCKHPD X2, X3                // hx·hx
	ADDPD    X1, X0                // dot3
	MOVSD    ptDir_hz(R8), X1
	MOVHPD   ptDir_hz(R10), X1
	MOVSD    ptDir_hz(R9), X2
	MOVHPD   ptDir_hz(R11), X2
	MULPD    X2, X1                // hz·hz
	ADDPD    X1, X3                // dotx

	// The pair's flags: ok3 and okx of both endpoints ANDed.
	MOVUPD   ptDir_ok3(R8), X4
	MOVUPD   ptDir_ok3(R9), X1
	ANDPD    X1, X4
	MOVUPD   ptDir_ok3(R10), X5
	MOVUPD   ptDir_ok3(R11), X1
	ANDPD    X1, X5
	MOVAPD   X4, X6
	UNPCKLPD X5, X4                // ok3
	UNPCKHPD X5, X6                // okx

	// The observed angles g3 and gx.
	MOVUPD   pairGeometry_g3(SI), X5
	MOVUPD   (pairGeometry__size+pairGeometry_g3)(SI), X1
	MOVAPD   X5, X7
	UNPCKLPD X1, X5                // g3
	UNPCKHPD X1, X7                // gx

	TERM(X0, X5, X4, X8, X9, X10)  // e3
	TERM(X3, X7, X6, X9, X10, X11) // ex

	// e = min(cap, e3 + 0.5·ex), the NaN passing as Go's e > cap lets it,
	// and cap itself where e3 >= cap.
	MOVAPD X13, X10
	CMPPD  X8, X10, $2             // cap <= e3
	MULPD  half<>(SB), X9
	ADDPD  X9, X8
	MOVAPD X13, X11
	MINPD  X8, X11
	MOVAPD X13, X12
	ANDPD  X10, X12
	ANDNPD X11, X10
	ORPD   X12, X10                // the two residuals

	// s += lane 0, stop at limit; s += lane 1, stop at limit. UCOMISD
	// leaves the carry clear exactly when s >= limit, never on a NaN.
	ADDSD    X10, X14
	UCOMISD  X15, X14
	JCC      done
	UNPCKHPD X10, X10
	ADDSD    X10, X14
	UCOMISD  X15, X14
	JCC      done

	ADDQ $(2*pairGeometry__size), SI
	DECQ CX
	JNZ  loop

done:
	MOVSD X14, s+56(FP)
	RET
