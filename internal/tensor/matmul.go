package tensor

import "fmt"

// The matmul kernels are cache-blocked and register-tiled: C is
// walked in micro-tiles whose partial sums live in registers, and each
// worker copies the active B panel into a dense scratch strip so the
// inner loop streams contiguous memory regardless of n. Workers split
// the row range on tile boundaries (parallelTiles).
//
// Two micro-kernels share that frame:
//   - mul4x16 (matmul_amd64.s), on amd64 CPUs with AVX2: a 4×16 tile in
//     eight YMM sums over a k×16 panel. It covers every full 16-column
//     strip of a worker with at least 4 rows; its row tail (1–3 rows)
//     runs mulEdge on the same panel.
//   - mul2x4, pure Go, everywhere else and on the column tail (n mod 16
//     columns) of the wide path. gc does not auto-vectorise, so every
//     sum occupies a full XMM register: 2 rows × 4 columns (8 sums + 4
//     b values + 2 a values) fits amd64's 16 float registers, and beat
//     a 4×4 tile by ~25 % on DeepLab-typical shapes. Its k loop is
//     unrolled ×2 and walks the packed panel through slice-to-array
//     pointers, so the compiler drops bounds checks. mulEdge takes the
//     partial tiles.
//
// Numerical contract (what the validation tests pin down):
//   - Each output element is an independent dot product: start at +0,
//     then for p = 0..k-1 in order round the product, then round the
//     sum, in one float32 register; store it, or add it to C once. The
//     products are written float32(a*b), so no arch fuses them into a
//     multiply-add, and mul4x16 uses VMULPS then VADDPS, never VFMADD.
//     So every kernel and tile position computes the same bits, on
//     every arch, at any GOMAXPROCS, and equal to the unblocked oracle
//     in matmul_test.go.
//   - IEEE semantics are preserved: there is no zero-skip, so a 0 in
//     A against a NaN/Inf in B propagates NaN into C exactly as the
//     arithmetic demands. (An earlier kernel skipped a == 0 rows as
//     an optimisation, silently converting 0×NaN to 0 and masking
//     divergence from the loss-scaling/NaN-detection path.)
const (
	mrTile = 2  // rows per mul2x4 tile
	nrTile = 4  // columns per mul2x4 tile (= its packed panel width)
	mrWide = 4  // rows per mul4x16 tile
	nrWide = 16 // columns per mul4x16 tile (= its packed panel width)
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
	parallelTiles(parallelDegree(m), m, mrWide, func(lo, hi int) {
		matmulRows(cd, ad, bd, k, n, lo, hi, false, accumulate)
	})
}

// matmulRows is the per-worker body of every GEMM: rows [lo,hi) of
// C = A·B for B [k,n], or of C = A·Bᵀ for B [n,k] when bt is set,
// packing one panel of B at a time. The two products differ only in
// how a panel is packed. With the wide kernel, full 16-column strips
// run mul4x16 tiles; the columns left over run mul2x4 on 4-wide panels.
func matmulRows(cd, ad, bd []float32, k, n, lo, hi int, bt, accumulate bool) {
	width := nrTile
	if wideKernel && hi-lo >= mrWide && n >= nrWide {
		width = nrWide
	}
	panel := kernelScratch.GetRaw(k * width)
	bp := panel.Data
	j0 := 0
	for ; width == nrWide && j0+nrWide <= n; j0 += nrWide {
		packPanel(bp, bd, k, n, j0, nrWide, nrWide, bt)
		i0 := lo
		for ; i0+mrWide <= hi; i0 += mrWide {
			mul4x16(cd[i0*n+j0:], n, ad[i0*k:], k, bp, accumulate)
		}
		if i0 < hi {
			mulEdge(cd[i0*n+j0:], n, ad[i0*k:], k, hi-i0, bp, nrWide, nrWide, accumulate)
		}
	}
	for ; j0 < n; j0 += nrTile {
		jw := min(nrTile, n-j0)
		packPanel(bp, bd, k, n, j0, jw, nrTile, bt)
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

// packPanel packs jw columns of B, from column j0, into bp as a dense
// k×w panel (bp[p·w+q] = B[p, j0+q]), zero-padded past jw; the pad
// columns are computed but never written back. B is [k,n], or [n,k]
// when bt is set.
func packPanel(bp, b []float32, k, n, j0, jw, w int, bt bool) {
	if bt {
		packPanelBT(bp, b, k, j0, jw, w)
	} else {
		packPanelB(bp, b, k, n, j0, jw, w)
	}
}

// packPanelB is packPanel for B [k,n]: row p of the panel is a copy of
// row p of B's column strip.
func packPanelB(bp, b []float32, k, n, j0, jw, w int) {
	switch {
	case jw == nrWide && w == nrWide:
		for p := 0; p < k; p++ {
			*(*[nrWide]float32)(bp[p*nrWide:]) = *(*[nrWide]float32)(b[p*n+j0:])
		}
		return
	case jw == nrTile && w == nrTile:
		for p := 0; p < k; p++ {
			src := b[p*n+j0 : p*n+j0+nrTile : p*n+j0+nrTile]
			dst := bp[p*nrTile : p*nrTile+nrTile : p*nrTile+nrTile]
			dst[0], dst[1], dst[2], dst[3] = src[0], src[1], src[2], src[3]
		}
		return
	}
	for p := 0; p < k; p++ {
		dst := bp[p*w : p*w+w]
		copy(dst, b[p*n+j0:p*n+j0+jw])
		clear(dst[jw:])
	}
}

// packPanelBT is packPanel for a transposed B [n,k]: rows j0…j0+jw−1
// of B become the panel's columns. Four source rows are read in step,
// row by row, so each pass streams them contiguously; a ragged jw mod 4
// remainder is gathered per element.
func packPanelBT(bp, b []float32, k, j0, jw, w int) {
	q0 := 0
	for ; q0+4 <= jw; q0 += 4 {
		b0 := b[(j0+q0+0)*k : (j0+q0+1)*k]
		b1 := b[(j0+q0+1)*k : (j0+q0+2)*k][:len(b0)]
		b2 := b[(j0+q0+2)*k : (j0+q0+3)*k][:len(b0)]
		b3 := b[(j0+q0+3)*k : (j0+q0+4)*k][:len(b0)]
		for p, v := range b0 {
			dst := (*[4]float32)(bp[p*w+q0:])
			dst[0], dst[1], dst[2], dst[3] = v, b1[p], b2[p], b3[p]
		}
	}
	if q0 == w {
		return
	}
	for p := 0; p < k; p++ {
		dst := bp[p*w+q0 : p*w+w]
		for q := range jw - q0 {
			dst[q] = b[(j0+q0+q)*k+p]
		}
		clear(dst[jw-q0:])
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
		s00 += float32(av * bq[0])
		s01 += float32(av * bq[1])
		s02 += float32(av * bq[2])
		s03 += float32(av * bq[3])
		s00 += float32(aw * bq[4])
		s01 += float32(aw * bq[5])
		s02 += float32(aw * bq[6])
		s03 += float32(aw * bq[7])
		av, aw = a1[p], a1[p+1]
		s10 += float32(av * bq[0])
		s11 += float32(av * bq[1])
		s12 += float32(av * bq[2])
		s13 += float32(av * bq[3])
		s10 += float32(aw * bq[4])
		s11 += float32(aw * bq[5])
		s12 += float32(aw * bq[6])
		s13 += float32(aw * bq[7])
	}
	for ; p < as; p++ {
		bq := (*[4]float32)(bb)
		bb = bb[4:]
		av := a0[p]
		s00 += float32(av * bq[0])
		s01 += float32(av * bq[1])
		s02 += float32(av * bq[2])
		s03 += float32(av * bq[3])
		av = a1[p]
		s10 += float32(av * bq[0])
		s11 += float32(av * bq[1])
		s12 += float32(av * bq[2])
		s13 += float32(av * bq[3])
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
				s += float32(arow[p] * b[p*bs+q])
			}
			if acc {
				crow[q] += s
			} else {
				crow[q] = s
			}
		}
	}
}
