#include "textflag.h"

// HSUM leaves ((s0+s1)+s2)+s3 of the four lanes of X in its low lane,
// the final sum of L2Squared, using T as scratch. The scalar adds keep
// that order exactly.
#define HSUM(X, T) \
	MOVAPS  X, T      \
	SHUFPS  $0x55, T, T \
	ADDSS   T, X      \
	MOVHLPS X, T      \
	ADDSS   T, X      \
	SHUFPS  $0x55, T, T \
	ADDSS   T, X

// LANE folds one 4-float block of a row into its accumulator: ACC +=
// (Q - ROW)², lane by lane, with separate SUBPS, MULPS and ADDPS (no FMA),
// so lane k updates exactly like L2Squared's s_k. T is scratch.
#define LANE(Q, ROW, T, ACC) \
	MOVAPS Q, T   \
	SUBPS  ROW, T \
	MULPS  T, T   \
	ADDPS  T, ACC

// func l2RowsSSE(dst, q, rows []float32)
//
// dst[i] = ‖q − row i‖² for the len(dst) rows of len(q) floats at the
// start of rows. Requires len(q)%4 == 0, which l2Rows dispatches on, and
// len(rows) >= len(dst)*len(q), which every caller ensures by slicing
// rows to that length. Four rows per pass share each load of q.
TEXT ·l2RowsSSE(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ q_base+24(FP), SI
	MOVQ q_len+32(FP), DX
	MOVQ rows_base+48(FP), R8
	SHLQ $2, DX // row length in bytes

four:
	CMPQ CX, $4
	JLT  one
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ  AX, AX

loop4:
	CMPQ   AX, DX
	JGE    sum4
	MOVUPS (SI)(AX*1), X4
	MOVUPS (R8)(AX*1), X5
	MOVUPS (R9)(AX*1), X6
	MOVUPS (R10)(AX*1), X7
	MOVUPS (R11)(AX*1), X8
	LANE(X4, X5, X9, X0)
	LANE(X4, X6, X10, X1)
	LANE(X4, X7, X11, X2)
	LANE(X4, X8, X12, X3)
	ADDQ   $16, AX
	JMP    loop4

sum4:
	HSUM(X0, X9)
	HSUM(X1, X10)
	HSUM(X2, X11)
	HSUM(X3, X12)
	MOVSS X0, 0(DI)
	MOVSS X1, 4(DI)
	MOVSS X2, 8(DI)
	MOVSS X3, 12(DI)
	LEAQ  (R11)(DX*1), R8
	ADDQ  $16, DI
	SUBQ  $4, CX
	JMP   four

one:
	TESTQ CX, CX
	JEQ   done
	XORPS X0, X0
	XORQ  AX, AX

loop1:
	CMPQ   AX, DX
	JGE    sum1
	MOVUPS (SI)(AX*1), X4
	MOVUPS (R8)(AX*1), X5
	LANE(X4, X5, X9, X0)
	ADDQ   $16, AX
	JMP    loop1

sum1:
	HSUM(X0, X9)
	MOVSS X0, 0(DI)
	ADDQ  DX, R8
	ADDQ  $4, DI
	DECQ  CX
	JMP   one

done:
	RET

// func argminBelow(ds []float32, bound float32) int
//
// Returns the index of the first minimum of ds when that minimum is
// below bound, else -1: the element a scalar `if d < best` scan seeded
// with bound would end on. NaNs never win and a NaN bound admits
// nothing. MINPS keeps its destination only when it is strictly less
// than the source (NaN compares false), so lane k of X0 ends as the
// least element of lane k's column that is below bound, or bound. The
// second pass finds the first element equal to that minimum.
TEXT ·argminBelow(SB), NOSPLIT, $0-40
	MOVQ   ds_base+0(FP), SI
	MOVQ   ds_len+8(FP), CX
	MOVSS  bound+24(FP), X0
	SHUFPS $0x00, X0, X0
	MOVQ   CX, BX
	ANDQ   $-4, BX // length of the 4-aligned body
	XORQ   AX, AX

minloop:
	CMPQ   AX, BX
	JGE    mintail
	MOVUPS (SI)(AX*4), X1
	MINPS  X0, X1
	MOVAPS X1, X0
	ADDQ   $4, AX
	JMP    minloop

mintail:
	CMPQ  AX, CX
	JGE   hmin
	MOVSS (SI)(AX*4), X1
	MINSS X0, X1
	MOVSS X1, X0 // low lane only
	INCQ  AX
	JMP   mintail

hmin:
	MOVAPS X0, X1
	SHUFPS $0x4e, X1, X1
	MINPS  X1, X0
	MOVAPS X0, X1
	SHUFPS $0xb1, X1, X1
	MINPS  X1, X0 // every lane holds the minimum
	MOVSS  bound+24(FP), X2
	UCOMISS X0, X2
	JHI    find // bound > min, ordered
	MOVQ   $-1, ret+32(FP)
	RET

find:
	XORQ AX, AX

findloop:
	CMPQ     AX, BX
	JGE      findtail
	MOVUPS   (SI)(AX*4), X1
	CMPPS    X0, X1, $0 // lanes equal to the minimum
	MOVMSKPS X1, DX
	TESTL    DX, DX
	JNE      found
	ADDQ     $4, AX
	JMP      findloop

found:
	BSFL DX, DX
	ADDQ DX, AX
	MOVQ AX, ret+32(FP)
	RET

findtail:
	CMPQ    AX, CX
	JGE     none
	MOVSS   (SI)(AX*4), X1
	UCOMISS X0, X1
	JNE     nexttail
	JPS     nexttail
	MOVQ    AX, ret+32(FP)
	RET

nexttail:
	INCQ AX
	JMP  findtail

none:
	MOVQ $-1, ret+32(FP)
	RET
