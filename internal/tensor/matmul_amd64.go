package tensor

// wideKernel reports whether matmulRows runs the AVX2 mul4x16 tiles:
// the CPU has AVX2 and the OS saves its YMM state. Off amd64, and on
// an amd64 CPU without AVX2, mul2x4 is the only kernel.
var wideKernel = hasAVX2()

// hasAVX2 is the CPUID/XGETBV check in matmul_amd64.s.
func hasAVX2() bool

// mul4x16 is mul2x4 on a 4×16 tile in AVX2 (matmul_amd64.s): a holds 4
// rows of stride as (= k), b is a packed k×nrWide panel, and all 16
// columns of the 4 rows of c (stride cs) are written, or added to when
// acc. Each lane rounds the same multiply-then-add chain as mul2x4, so
// the two kernels agree bit for bit.
//
//go:noescape
func mul4x16(c []float32, cs int, a []float32, as int, b []float32, acc bool)
