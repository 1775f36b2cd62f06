#include "textflag.h"

// The SSE2 kernel of projectGeneric; project_amd64.go says why its sums
// have the generic loop's bits.

// func project(acc *[8]float32, blk [][8]float32, vec []float32)
TEXT ·project(SB), NOSPLIT, $0-56
	MOVQ  blk_base+8(FP), SI
	MOVQ  blk_len+16(FP), CX
	MOVQ  vec_base+32(FP), DI
	XORPS X0, X0 // rows 0-3
	XORPS X1, X1 // rows 4-7
	TESTQ CX, CX
	JZ    done

dim:
	MOVSS  (DI), X2
	SHUFPS $0, X2, X2 // vec[d] in every lane
	MOVUPS (SI), X3
	MOVUPS 16(SI), X4
	MULPS  X2, X3
	MULPS  X2, X4
	ADDPS  X3, X0
	ADDPS  X4, X1
	ADDQ   $32, SI
	ADDQ   $4, DI
	DECQ   CX
	JNZ    dim

done:
	MOVQ   acc+0(FP), AX
	MOVUPS X0, (AX)
	MOVUPS X1, 16(AX)
	RET
