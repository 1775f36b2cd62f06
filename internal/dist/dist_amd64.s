#include "textflag.h"

// SSE2 kernels of Sq and SqLimit. A block is 16 bytes of each operand:
// widened to 16-bit words (unpacked against the zero in X7), subtracted,
// and squared and added in pairs by PMADDWD (PMADDWL here) into four 32-bit
// lanes. A difference is at most 255 in magnitude, so a lane gains at most
// 4·255² = 260100 per block and every sum is exact.

// BLOCK leaves in X0 the four lane sums of one block of SI and DI.
// Clobbers X1-X3.
#define BLOCK \
	MOVOU     (SI), X0; \
	MOVOU     (DI), X1; \
	MOVO      X0, X2; \
	MOVO      X1, X3; \
	PUNPCKLBW X7, X0; \
	PUNPCKLBW X7, X1; \
	PUNPCKHBW X7, X2; \
	PUNPCKHBW X7, X3; \
	PSUBW     X1, X0; \
	PSUBW     X3, X2; \
	PMADDWL   X0, X0; \
	PMADDWL   X2, X2; \
	PADDL     X2, X0; \
	ADDQ      $16, SI; \
	ADDQ      $16, DI; \
	SUBQ      $16, CX

// HSUM adds the four lanes of x (clobbered) into the 64-bit AX; their
// sum is below 2³¹. Clobbers X1 and BX.
#define HSUM(x) \
	PSHUFD $0x4e, x, X1; \
	PADDL  X1, x; \
	PSHUFD $0xb1, x, X1; \
	PADDL  X1, x; \
	MOVL   x, BX; \
	ADDQ   BX, AX

// TAIL adds the squared differences of the last CX (< 16) bytes into AX,
// one byte at a time. Clobbers BX and R8.
#define TAIL \
	TESTQ   CX, CX; \
	JZ      done; \
byte: \
	MOVBQZX (SI), BX; \
	MOVBQZX (DI), R8; \
	SUBQ    R8, BX; \
	IMULQ   BX, BX; \
	ADDQ    BX, AX; \
	INCQ    SI; \
	INCQ    DI; \
	DECQ    CX; \
	JNZ     byte; \
done:

// func sq(a, b []byte) int
TEXT ·sq(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	XORQ AX, AX
	PXOR X7, X7

chunk:
	// Up to 2048 blocks accumulate in the lanes of X6 before they are
	// folded into AX: 2048·260100·4 < 2³¹.
	CMPQ CX, $16
	JLT  tail
	PXOR X6, X6
	MOVQ $2048, DX

block:
	BLOCK
	PADDL X0, X6
	DECQ  DX
	JZ    fold
	CMPQ  CX, $16
	JGE   block

fold:
	HSUM(X6)
	JMP chunk

tail:
	TAIL
	MOVQ AX, ret+48(FP)
	RET

// func sqLimit(a, b []byte, limit int) int
TEXT ·sqLimit(SB), NOSPLIT, $0-64
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	MOVQ limit+48(FP), DX
	XORQ AX, AX
	PXOR X7, X7

block:
	// The running sum is checked after every block, as the generic
	// loop does, so an early exit returns the same partial sum.
	CMPQ CX, $16
	JLT  tail
	BLOCK
	HSUM(X0)
	CMPQ AX, DX
	JLT  block
	MOVQ AX, ret+56(FP)
	RET

tail:
	TAIL
	MOVQ AX, ret+56(FP)
	RET
