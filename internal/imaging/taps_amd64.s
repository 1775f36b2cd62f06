#include "textflag.h"

// SSE2 tap sweeps of the Gaussian blur. Four pixels per instruction: every
// lane runs the float32 chain of the generic loop, a MULPS of the source
// pixel by the broadcast tap then an ADDPS into the running pixel, taps in
// ascending order and never fused. The last len(dst)%4 pixels run the same
// chain one at a time in MULSS and ADDSS.

// func taps4(dst, s0, s1, s2, s3 []float32, k *[4]float32)
TEXT ·taps4(SB), NOSPLIT, $0-128
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   s0_base+24(FP), R8
	MOVQ   s1_base+48(FP), R9
	MOVQ   s2_base+72(FP), R10
	MOVQ   s3_base+96(FP), R11
	MOVQ   k+120(FP), AX
	MOVSS  (AX), X8
	SHUFPS $0, X8, X8
	MOVSS  4(AX), X9
	SHUFPS $0, X9, X9
	MOVSS  8(AX), X10
	SHUFPS $0, X10, X10
	MOVSS  12(AX), X11
	SHUFPS $0, X11, X11
	XORQ   BX, BX
	MOVQ   CX, DX
	ANDQ   $-4, DX

quad:
	CMPQ   BX, DX
	JGE    single
	MOVUPS (DI)(BX*4), X0
	MOVUPS (R8)(BX*4), X1
	MULPS  X8, X1
	ADDPS  X1, X0
	MOVUPS (R9)(BX*4), X2
	MULPS  X9, X2
	ADDPS  X2, X0
	MOVUPS (R10)(BX*4), X3
	MULPS  X10, X3
	ADDPS  X3, X0
	MOVUPS (R11)(BX*4), X4
	MULPS  X11, X4
	ADDPS  X4, X0
	MOVUPS X0, (DI)(BX*4)
	ADDQ   $4, BX
	JMP    quad

single:
	CMPQ  BX, CX
	JGE   done
	MOVSS (DI)(BX*4), X0
	MOVSS (R8)(BX*4), X1
	MULSS X8, X1
	ADDSS X1, X0
	MOVSS (R9)(BX*4), X2
	MULSS X9, X2
	ADDSS X2, X0
	MOVSS (R10)(BX*4), X3
	MULSS X10, X3
	ADDSS X3, X0
	MOVSS (R11)(BX*4), X4
	MULSS X11, X4
	ADDSS X4, X0
	MOVSS X0, (DI)(BX*4)
	INCQ  BX
	JMP   single

done:
	RET

// func tap1(dst, s []float32, k float32)
TEXT ·tap1(SB), NOSPLIT, $0-52
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   s_base+24(FP), R8
	MOVSS  k+48(FP), X8
	SHUFPS $0, X8, X8
	XORQ   BX, BX
	MOVQ   CX, DX
	ANDQ   $-4, DX

quad:
	CMPQ   BX, DX
	JGE    single
	MOVUPS (DI)(BX*4), X0
	MOVUPS (R8)(BX*4), X1
	MULPS  X8, X1
	ADDPS  X1, X0
	MOVUPS X0, (DI)(BX*4)
	ADDQ   $4, BX
	JMP    quad

single:
	CMPQ  BX, CX
	JGE   done
	MOVSS (DI)(BX*4), X0
	MOVSS (R8)(BX*4), X1
	MULSS X8, X1
	ADDSS X1, X0
	MOVSS X0, (DI)(BX*4)
	INCQ  BX
	JMP   single

done:
	RET
