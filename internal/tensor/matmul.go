package tensor

import "fmt"

// The matmul kernels are cache-blocked and register-tiled: C is
// walked in mrTile×nrTile micro-tiles whose partial sums live in
// registers, and the packed kernels copy the active B panel into a
// dense per-worker scratch strip so the inner loop streams contiguous
// memory regardless of n. Workers split the row range via Parallel.
//
// The micro-tile is 2×4 rather than the classic 4×4: gc does not
// auto-vectorise, so every accumulator occupies a full XMM register,
// and 16 accumulators plus the a/b operands spill. 2 rows × 4 columns
// (8 accumulators + 4 b values + 2 a values) fits amd64's 16 float
// registers; measured on DeepLab-typical shapes it beats 4×4 by ~25 %.
// The inner loop is unrolled ×2 over k, and the packed B panel is
// walked with slice-to-array-pointer conversions so the compiler drops
// bounds checks and index arithmetic.
//
// Numerical contract (what the validation tests pin down):
//   - Each output element is an independent dot product accumulated
//     in index order p = 0..k-1 in a single float32 register, so
//     results are bit-identical across GOMAXPROCS settings and tile
//     boundaries, and bit-identical to the unblocked oracle in
//     matmul_test.go for the non-accumulating case.
//   - IEEE semantics are preserved: there is no zero-skip, so a 0 in
//     A against a NaN/Inf in B propagates NaN into C exactly as the
//     arithmetic demands. (An earlier kernel skipped a == 0 rows as
//     an optimisation, silently converting 0×NaN to 0 and masking
//     divergence from the loss-scaling/NaN-detection path.)
const (
	mrTile = 2 // rows per micro-tile (register-blocked)
	nrTile = 4 // columns per micro-tile (= packed panel width)
)

// MatMulInto computes C = A·B (or C += A·B when accumulate) into an
// existing [m,n] tensor, allocation-free in steady state: the only
// working memory is a per-worker B panel drawn from an internal pool,
// and the serial path calls the worker directly so no closure is
// allocated.
//
// Pinned at zero allocations on the serial path by
// TestMatMulIntoZeroAllocs.
func MatMulInto(c, a, b *Tensor, accumulate bool) {
	m, k, n := checkMatMul(a, b)
	checkMatMulOut(c, m, n, "matmul")
	cd, ad, bd := c.Data, a.Data, b.Data
	if parallelDegree(m) <= 1 {
		matmulRows(cd, ad, bd, k, n, 0, m, false, accumulate)
		return
	}
	Parallel(m, func(lo, hi int) {
		matmulRows(cd, ad, bd, k, n, lo, hi, false, accumulate)
	})
}

// matmulRows is the per-worker body of every GEMM: rows [lo,hi) of
// C = A·B for B [k,n], or of C = A·Bᵀ for B [n,k] when bt is set,
// packing one k×nrTile panel of B at a time. The two products differ
// only in how a panel is packed.
func matmulRows(cd, ad, bd []float32, k, n, lo, hi int, bt, accumulate bool) {
	panel := kernelScratch.GetRaw(k * nrTile)
	bp := panel.Data
	for j0 := 0; j0 < n; j0 += nrTile {
		jw := min(nrTile, n-j0)
		if bt {
			packPanelBT(bp, bd, k, j0, jw)
		} else {
			packPanelB(bp, bd, k, n, j0, jw)
		}
		i0 := lo
		for ; i0+mrTile <= hi; i0 += mrTile {
			mul2x4(cd[i0*n+j0:], n, ad[i0*k:], k, bp, jw, accumulate)
		}
		if i0 < hi {
			mulEdge(cd[i0*n+j0:], n, ad[i0*k:], k, hi-i0, bp, nrTile, jw, accumulate)
		}
	}
	kernelScratch.Put(panel)
}

// matmulATRows computes rows [lo,hi) of C = Aᵀ·B for A [k,m], B [k,n]
// into C [m,n] — the shape conv backward needs for input-column
// gradients — gathering the worker's strip of Aᵀ once up front and
// then running matmulRows on it.
func matmulATRows(cd, ad, bd []float32, k, m, n, lo, hi int, accumulate bool) {
	rows := hi - lo
	apanel := kernelScratch.GetRaw(rows * k)
	packPanelAT(apanel.Data, ad, k, m, lo, rows)
	matmulRows(cd[lo*n:], apanel.Data, bd, k, n, 0, rows, false, accumulate)
	kernelScratch.Put(apanel)
}

func checkMatMul(a, b *Tensor) (m, k, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: matmul needs rank-2, got %v × %v", a.Shape, b.Shape))
	}
	if a.Dim(1) != b.Dim(0) {
		panic(fmt.Sprintf("tensor: matmul inner dims %v × %v", a.Shape, b.Shape))
	}
	return a.Dim(0), a.Dim(1), b.Dim(1)
}

func checkMatMulOut(c *Tensor, m, n int, op string) {
	if len(c.Shape) != 2 || c.Dim(0) != m || c.Dim(1) != n {
		panic(fmt.Sprintf("tensor: %s out %v, want [%d %d]", op, c.Shape, m, n))
	}
}

// packPanelB copies the k×jw column strip of B starting at column j0
// into bp as a dense k×nrTile panel (zero-padded past jw; the pad
// columns are computed but never written back).
func packPanelB(bp, b []float32, k, n, j0, jw int) {
	if jw == nrTile {
		for p := 0; p < k; p++ {
			src := b[p*n+j0 : p*n+j0+nrTile : p*n+j0+nrTile]
			dst := bp[p*nrTile : p*nrTile+nrTile : p*nrTile+nrTile]
			dst[0], dst[1], dst[2], dst[3] = src[0], src[1], src[2], src[3]
		}
		return
	}
	for p := 0; p < k; p++ {
		dst := bp[p*nrTile : p*nrTile+nrTile]
		copy(dst, b[p*n+j0:p*n+j0+jw])
		for q := jw; q < nrTile; q++ {
			dst[q] = 0
		}
	}
}

// packPanelBT is packPanelB for a transposed B [n,k]: rows j0…j0+jw−1
// of B become the columns of the dense k×nrTile panel bp (zero-padded
// past jw), so bp[p·nrTile+q] = B[j0+q, p].
func packPanelBT(bp, b []float32, k, j0, jw int) {
	if jw == nrTile {
		b0 := b[(j0+0)*k : (j0+1)*k]
		b1 := b[(j0+1)*k : (j0+2)*k][:len(b0)]
		b2 := b[(j0+2)*k : (j0+3)*k][:len(b0)]
		b3 := b[(j0+3)*k : (j0+4)*k][:len(b0)]
		for p, v := range b0 {
			dst := (*[nrTile]float32)(bp[p*nrTile:])
			dst[0], dst[1], dst[2], dst[3] = v, b1[p], b2[p], b3[p]
		}
		return
	}
	for p := 0; p < k; p++ {
		dst := bp[p*nrTile : p*nrTile+nrTile]
		for q := 0; q < jw; q++ {
			dst[q] = b[(j0+q)*k+p]
		}
		clear(dst[jw:])
	}
}

// packPanelAT gathers iw columns of A [k,m] starting at column i0
// into ap as iw contiguous rows of length k (ap[r*k+p] = A[p, i0+r]).
func packPanelAT(ap, a []float32, k, m, i0, iw int) {
	for r := 0; r < iw; r++ {
		col := i0 + r
		dst := ap[r*k : r*k+k]
		for p := 0; p < k; p++ {
			dst[p] = a[p*m+col]
		}
	}
}

// mul2x4 is the register-blocked core: a 2×4 tile of C accumulated
// over the full k extent. a holds 2 contiguous rows of stride as; b is
// a packed k×nrTile panel walked via array-pointer loads. The k loop
// is unrolled ×2; each accumulator still folds terms in ascending p
// order, so the result is bit-identical to a scalar p-loop. jw ≤ 4
// columns are written back.
func mul2x4(c []float32, cs int, a []float32, as int, b []float32, jw int, acc bool) {
	a0 := a[0*as : 0*as+as : 0*as+as]
	a1 := a[1*as : 1*as+as : 1*as+as]
	var s00, s01, s02, s03 float32
	var s10, s11, s12, s13 float32
	bb := b
	p := 0
	for ; p+2 <= as; p += 2 {
		bq := (*[8]float32)(bb)
		bb = bb[8:]
		av, aw := a0[p], a0[p+1]
		s00 += av * bq[0]
		s01 += av * bq[1]
		s02 += av * bq[2]
		s03 += av * bq[3]
		s00 += aw * bq[4]
		s01 += aw * bq[5]
		s02 += aw * bq[6]
		s03 += aw * bq[7]
		av, aw = a1[p], a1[p+1]
		s10 += av * bq[0]
		s11 += av * bq[1]
		s12 += av * bq[2]
		s13 += av * bq[3]
		s10 += aw * bq[4]
		s11 += aw * bq[5]
		s12 += aw * bq[6]
		s13 += aw * bq[7]
	}
	for ; p < as; p++ {
		bq := (*[4]float32)(bb)
		bb = bb[4:]
		av := a0[p]
		s00 += av * bq[0]
		s01 += av * bq[1]
		s02 += av * bq[2]
		s03 += av * bq[3]
		av = a1[p]
		s10 += av * bq[0]
		s11 += av * bq[1]
		s12 += av * bq[2]
		s13 += av * bq[3]
	}
	rows := [mrTile][nrTile]float32{
		{s00, s01, s02, s03},
		{s10, s11, s12, s13},
	}
	for r := 0; r < mrTile; r++ {
		crow := c[r*cs : r*cs+jw]
		if acc {
			for q := 0; q < jw; q++ {
				crow[q] += rows[r][q]
			}
		} else {
			for q := 0; q < jw; q++ {
				crow[q] = rows[r][q]
			}
		}
	}
}

// mulEdge handles partial tiles (iw < mrTile rows and/or jw < nrTile
// columns): plain per-element dot products in the same p order, so
// edge elements carry identical bits to interior ones.
func mulEdge(c []float32, cs int, a []float32, as, iw int, b []float32, bs, jw int, acc bool) {
	for r := 0; r < iw; r++ {
		arow := a[r*as : r*as+as]
		crow := c[r*cs : r*cs+jw]
		for q := 0; q < jw; q++ {
			var s float32
			for p := 0; p < as; p++ {
				s += arow[p] * b[p*bs+q]
			}
			if acc {
				crow[q] += s
			} else {
				crow[q] = s
			}
		}
	}
}
