#include "textflag.h"

// The SSE2 gradient kernel of the descriptor and orientation windows. Two
// pixels per instruction: each lane runs, operation for operation, the
// float64 chain of math.Sqrt(gx*gx + gy*gy) and of Go's pure-Go
// math.Atan2(gy, gx) on finite non-zero input, which is atan(gy/gx) with the
// gx < 0 quadrant fix, atan(r) = sign(r)·satan(|r|), and satan's three
// ranges picked by masks instead of branches. No step is fused or
// reassociated, so each lane has the bits of the Go call.

// Both lanes of every constant; 16-byte symbols are 16-byte aligned, as
// the memory operands of the packed SSE2 instructions require.
#define CONST2(name, bits) DATA name<>+0(SB)/8, $bits; DATA name<>+8(SB)/8, $bits; GLOBL name<>(SB), RODATA|NOPTR, $16

CONST2(signMask, 0x8000000000000000)
CONST2(absMask, 0x7fffffffffffffff)
CONST2(one, 0x3ff0000000000000)
CONST2(pi, 0x400921fb54442d18)
CONST2(piOver2, 0x3ff921fb54442d18)
CONST2(piOver4, 0x3fe921fb54442d18)
CONST2(lowRange, 0x3fe51eb851eb851f)   // 0.66
CONST2(tan3pio8, 0x4003504f333f9de6)
CONST2(morebits, 0x3c91a62633145c07)
CONST2(halfMorebits, 0x3c81a62633145c07)
CONST2(atanP0, 0xbfec007fa1f72594)
CONST2(atanP1, 0xc03028545b6b807a)
CONST2(atanP2, 0xc052c08c36880273)
CONST2(atanP3, 0xc05eb8bf2d05ba25)
CONST2(atanP4, 0xc0503669fd28ec8e)
CONST2(atanQ0, 0x4038dbc45b14603c)
CONST2(atanQ1, 0x4064a0dd43b8fa25)
CONST2(atanQ2, 0x407b0e18d2e2be3b)
CONST2(atanQ3, 0x407e563f13b049ea)
CONST2(atanQ4, 0x4068519efbbd62ec)

// func gradients2(mag, theta, gx, gy []float64) (special bool)
TEXT ·gradients2(SB), NOSPLIT, $0-97
	MOVQ  mag_base+0(FP), DI
	MOVQ  theta_base+24(FP), SI
	MOVQ  gx_base+48(FP), R8
	MOVQ  gx_len+56(FP), CX
	MOVQ  gy_base+72(FP), R9
	XORPD X14, X14 // zero
	XORPD X13, X13 // lanes to leave to Go, or-ed over the slices
	XORQ  BX, BX

pair:
	CMPQ   BX, CX
	JGE    done
	MOVUPD (R8)(BX*8), X0 // gx
	MOVUPD (R9)(BX*8), X1 // gy

	// mag = sqrt(gx*gx + gy*gy)
	MOVAPD X0, X2
	MULPD  X0, X2
	MOVAPD X1, X3
	MULPD  X1, X3
	ADDPD  X3, X2
	SQRTPD X2, X2
	MOVUPD X2, (DI)(BX*8)

	// Lanes with gx == 0, gy == 0 or a non-finite input (x-x is NaN) are
	// atan2's special cases.
	MOVAPD X0, X2
	CMPPD  X14, X2, $0
	MOVAPD X1, X3
	CMPPD  X14, X3, $0
	ORPD   X3, X2
	MOVAPD X0, X3
	SUBPD  X0, X3
	MOVAPD X1, X4
	SUBPD  X1, X4
	CMPPD  X4, X3, $3
	ORPD   X3, X2
	ORPD   X2, X13

	// r = gy/gx, s = |r|; mA: s <= 0.66, mB: s > tan(3π/8).
	MOVAPD X1, X5
	DIVPD  X0, X5
	MOVAPD X5, X6
	ANDPD  absMask<>(SB), X6
	MOVAPD X6, X7
	CMPPD  lowRange<>(SB), X7, $2
	MOVUPD tan3pio8<>(SB), X8
	CMPPD  X6, X8, $1

	// satan's argument t = N/D: s/1 under mA, 1/s under mB, else
	// (s-1)/(s+1).
	MOVAPD X6, X9
	SUBPD  one<>(SB), X9
	MOVAPD X6, X10
	ADDPD  one<>(SB), X10
	MOVUPD one<>(SB), X11
	ANDPD  X8, X11
	MOVAPD X8, X12
	ANDNPD X9, X12
	ORPD   X12, X11       // N under not mA
	MOVAPD X8, X12
	ANDNPD X10, X12
	MOVAPD X6, X9
	ANDPD  X8, X9
	ORPD   X9, X12        // D under not mA
	MOVAPD X6, X9
	ANDPD  X7, X9
	MOVAPD X7, X10
	ANDNPD X11, X10
	ORPD   X10, X9        // N
	MOVUPD one<>(SB), X10
	ANDPD  X7, X10
	MOVAPD X7, X11
	ANDNPD X12, X11
	ORPD   X11, X10       // D
	DIVPD  X10, X9        // t

	// xatan(t): z = t*t; z = z*P(z)/Q(z); xatan = t*z + t.
	MOVAPD X9, X2
	MULPD  X9, X2
	MOVUPD atanP0<>(SB), X3
	MULPD  X2, X3
	ADDPD  atanP1<>(SB), X3
	MULPD  X2, X3
	ADDPD  atanP2<>(SB), X3
	MULPD  X2, X3
	ADDPD  atanP3<>(SB), X3
	MULPD  X2, X3
	ADDPD  atanP4<>(SB), X3
	MOVAPD X2, X4
	ADDPD  atanQ0<>(SB), X4
	MULPD  X2, X4
	ADDPD  atanQ1<>(SB), X4
	MULPD  X2, X4
	ADDPD  atanQ2<>(SB), X4
	MULPD  X2, X4
	ADDPD  atanQ3<>(SB), X4
	MULPD  X2, X4
	ADDPD  atanQ4<>(SB), X4
	MULPD  X3, X2
	DIVPD  X4, X2
	MULPD  X9, X2
	ADDPD  X9, X2         // xatan(t)

	// satan(s): xatan(t) under mA, π/2 - xatan(t) + Morebits under mB,
	// else π/4 + xatan(t) + Morebits/2.
	MOVUPD piOver2<>(SB), X3
	SUBPD  X2, X3
	ADDPD  morebits<>(SB), X3
	MOVUPD piOver4<>(SB), X4
	ADDPD  X2, X4
	ADDPD  halfMorebits<>(SB), X4
	ANDPD  X8, X3
	ANDNPD X4, X8
	ORPD   X8, X3
	ANDPD  X7, X2
	ANDNPD X3, X7
	ORPD   X7, X2

	// q = atan(r): satan(s) with the sign of r.
	ANDPD  signMask<>(SB), X5
	XORPD  X5, X2

	// gx < 0: q + π when q <= 0, else q - π.
	MOVAPD X0, X3
	CMPPD  X14, X3, $1
	MOVAPD X2, X4
	CMPPD  X14, X4, $2
	ANDNPD signMask<>(SB), X4
	XORPD  pi<>(SB), X4
	ADDPD  X2, X4
	ANDPD  X3, X4
	ANDNPD X2, X3
	ORPD   X3, X4
	MOVUPD X4, (SI)(BX*8)

	ADDQ $2, BX
	JMP  pair

done:
	MOVMSKPD X13, AX
	TESTQ    AX, AX
	SETNE    special+96(FP)
	RET
