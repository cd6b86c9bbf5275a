//go:build !amd64

package tensor

// wideKernel is false off amd64: mul2x4 and mulEdge are the only
// kernels, so matmulRows never reaches mul4x16 here.
const wideKernel = false

// mul4x16 is the wide tile's definition in pure Go, per element in
// mulEdge's ascending-p order; it keeps matmulRows building off amd64.
func mul4x16(c []float32, cs int, a []float32, as int, b []float32, acc bool) {
	mulEdge(c, cs, a, as, mrWide, b, nrWide, nrWide, acc)
}
