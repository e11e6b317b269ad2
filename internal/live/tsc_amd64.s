#include "textflag.h"

// func rdtsc() uint64
TEXT ·rdtsc(SB), NOSPLIT, $0-8
	RDTSC
	SHLQ $32, DX
	ORQ  DX, AX
	MOVQ AX, ret+0(FP)
	RET

// func tscInvariant() bool: CPUID leaf 0x80000007, EDX bit 8, where the
// CPU has that leaf.
TEXT ·tscInvariant(SB), NOSPLIT, $0-1
	MOVL $0x80000000, AX
	XORL CX, CX
	CPUID
	CMPL AX, $0x80000007
	JB   none
	MOVL $0x80000007, AX
	XORL CX, CX
	CPUID
	SHRL $8, DX
	ANDL $1, DX
	MOVB DX, ret+0(FP)
	RET
none:
	MOVB $0, ret+0(FP)
	RET
