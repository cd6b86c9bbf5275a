package tensor

import "fmt"

// MatMulATInto and MatMulBTInto are the GEMM tests' entry points over
// the two transposed products conv backward runs slab by slab:
// matmulATRows (input-column gradients) and matmulRows' bt path
// (weight gradients). Each checks shapes and fans rows out over
// GOMAXPROCS on tile boundaries like MatMulInto.

// MatMulATInto computes C = Aᵀ·B for A [k,m], B [k,n] into C [m,n],
// accumulating when requested.
func MatMulATInto(c, a, b *Tensor, accumulate bool) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic("tensor: matmulAT needs rank-2 inputs")
	}
	k, m := a.Dim(0), a.Dim(1)
	if b.Dim(0) != k {
		panic(fmt.Sprintf("tensor: matmulAT inner dims %v × %v", a.Shape, b.Shape))
	}
	n := b.Dim(1)
	checkMatMulOut(c, m, n, "matmulAT")
	cd, ad, bd := c.Data, a.Data, b.Data
	if parallelDegree(m) <= 1 {
		matmulATRows(cd, ad, bd, k, m, n, 0, m, accumulate)
		return
	}
	parallelTiles(parallelDegree(m), m, mrWide, func(lo, hi int) {
		matmulATRows(cd, ad, bd, k, m, n, lo, hi, accumulate)
	})
}

// MatMulBTInto computes C = A·Bᵀ for A [m,k], B [n,k] into C [m,n],
// accumulating when requested.
func MatMulBTInto(c, a, b *Tensor, accumulate bool) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic("tensor: matmulBT needs rank-2 inputs")
	}
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(0)
	if b.Dim(1) != k {
		panic(fmt.Sprintf("tensor: matmulBT inner dims %v × %v", a.Shape, b.Shape))
	}
	checkMatMulOut(c, m, n, "matmulBT")
	cd, ad, bd := c.Data, a.Data, b.Data
	if parallelDegree(m) <= 1 {
		matmulRows(cd, ad, bd, k, n, 0, m, true, accumulate)
		return
	}
	parallelTiles(parallelDegree(m), m, mrWide, func(lo, hi int) {
		matmulRows(cd, ad, bd, k, n, lo, hi, true, accumulate)
	})
}
