package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// transpose returns a new [n,m] tensor with t's axes swapped.
func transpose(t *Tensor) *Tensor {
	m, n := t.Dim(0), t.Dim(1)
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = t.Data[i*n+j]
		}
	}
	return out
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

// requireBitIdentical fails unless x and y carry identical bit
// patterns element by element (NaN == NaN, +0 != -0).
func requireBitIdentical(t *testing.T, got, want *Tensor, label string) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v vs %v", label, got.Shape, want.Shape)
	}
	for i := range got.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d differs: %x (%g) vs %x (%g)",
				label, i,
				math.Float32bits(got.Data[i]), got.Data[i],
				math.Float32bits(want.Data[i]), want.Data[i])
		}
	}
}

// oracleMatMulInto is the unblocked reference kernel the tiled paths
// are validated against: k-outer loops so B streams row-wise, no
// tiling, no packing, full IEEE propagation. Each element folds its
// products in ascending p onto +0 (or onto C when accumulating).
func oracleMatMulInto(c, a, b *Tensor, accumulate bool) {
	m, k, n := checkMatMul(a, b)
	checkMatMulOut(c, m, n, "matmul")
	if !accumulate {
		c.Zero()
	}
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*n : (i+1)*n]
		for p, av := range arow {
			brow := b.Data[p*n : (p+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// edgeDims exercises every tiling regime: below one micro-tile, exact
// tiles, one-off remainders, and panel-boundary straddles.
var edgeDims = []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 33}

// TestMatMulBitIdenticalToRef pins the tiled kernel's numerical
// contract: for accumulate=false every element is the same ascending-p
// register dot the reference kernel folds in memory, so the two paths
// must agree bit for bit — including partial edge tiles.
func TestMatMulBitIdenticalToRef(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range edgeDims {
		for _, k := range edgeDims {
			for _, n := range edgeDims {
				a := randTensor(rng, m, k)
				b := randTensor(rng, k, n)
				got, want := New(m, n), New(m, n)
				MatMulInto(got, a, b, false)
				oracleMatMulInto(want, a, b, false)
				requireBitIdentical(t, got, want, "matmul")

				at := transpose(a)
				gotAT := New(m, n)
				MatMulATInto(gotAT, at, b, false)
				requireBitIdentical(t, gotAT, want, "matmulAT")

				bt := transpose(b)
				gotBT := New(m, n)
				MatMulBTInto(gotBT, a, bt, false)
				requireBitIdentical(t, gotBT, want, "matmulBT")
			}
		}
	}
}

// TestMatMulAccumulateEdgeShapes checks C += A·B across the same edge
// shapes with a tolerance: accumulate=true folds the existing C in a
// different association than the reference, so only closeness is
// promised.
func TestMatMulAccumulateEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 5}, {5, 4, 3}, {9, 17, 8}, {16, 9, 33}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		base := randTensor(rng, m, n)

		got := base.Clone()
		MatMulInto(got, a, b, true)
		want := base.Clone()
		oracleMatMulInto(want, a, b, true)
		tensorsClose(t, got, want, 1e-4, "matmul accumulate")

		gotAT := base.Clone()
		MatMulATInto(gotAT, transpose(a), b, true)
		tensorsClose(t, gotAT, want, 1e-4, "matmulAT accumulate")

		gotBT := base.Clone()
		MatMulBTInto(gotBT, a, transpose(b), true)
		tensorsClose(t, gotBT, want, 1e-4, "matmulBT accumulate")
	}
}

// TestMatMulNaNInfPropagation guards the zero-skip bugfix: a zero in A
// multiplying a NaN or Inf in B must produce NaN in C (0×NaN = NaN,
// 0×Inf = NaN). The old kernel skipped zero A values as an
// optimisation and silently reported finite results for diverged
// operands, hiding exactly the signal loss-scaling and NaN-detection
// exist to catch.
func TestMatMulNaNInfPropagation(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))

	// Row 0 of A is all zeros; columns of B carry NaN/Inf poison.
	a := FromSlice([]float32{
		0, 0, 0,
		1, 2, 3,
	}, 2, 3)
	b := FromSlice([]float32{
		nan, inf, 1, 0,
		0, 1, 2, 0,
		0, 0, inf, 0,
	}, 3, 4)

	check := func(name string, f func(c *Tensor)) {
		c := Full(-1, 2, 4)
		f(c)
		want := naiveMatMul(a, b)
		for i := range c.Data {
			gotNaN := math.IsNaN(float64(c.Data[i]))
			wantNaN := math.IsNaN(float64(want.Data[i]))
			if gotNaN != wantNaN {
				t.Fatalf("%s: element %d NaN=%v, naive NaN=%v (got %g, naive %g)",
					name, i, gotNaN, wantNaN, c.Data[i], want.Data[i])
			}
			if !wantNaN && math.Float32bits(c.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%s: element %d = %g, naive %g", name, i, c.Data[i], want.Data[i])
			}
		}
	}

	check("matmul", func(c *Tensor) { MatMulInto(c, a, b, false) })
	check("matmulAT", func(c *Tensor) { MatMulATInto(c, transpose(a), b, false) })
	check("matmulBT", func(c *Tensor) { MatMulBTInto(c, a, transpose(b), false) })

	// Sanity: 0×NaN and 0×Inf really did reach C.
	c := New(2, 4)
	MatMulInto(c, a, b, false)
	if !math.IsNaN(float64(c.Data[0])) || !math.IsNaN(float64(c.Data[1])) {
		t.Fatalf("zero row × NaN/Inf columns stayed finite: %v", c.Data[:4])
	}
}

// TestMatMulGOMAXPROCSIndependent pins the stronger determinism the
// register-dot kernel provides: worker count changes which goroutine
// computes an element, never the element's fold order, so results are
// bit-identical across GOMAXPROCS settings.
func TestMatMulGOMAXPROCSIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randTensor(rng, 37, 29)
	b := randTensor(rng, 29, 23)

	prev := runtime.GOMAXPROCS(1)
	serial := New(37, 23)
	MatMulInto(serial, a, b, false)
	runtime.GOMAXPROCS(4)
	wide := New(37, 23)
	MatMulInto(wide, a, b, false)
	runtime.GOMAXPROCS(prev)

	requireBitIdentical(t, wide, serial, "gomaxprocs")
}

// mallocsPerRun counts what testing.AllocsPerRun cannot: the
// steady-state allocations of fn at GOMAXPROCS=procs, a Mallocs delta
// averaged over runs after one warm-up. AllocsPerRun pins GOMAXPROCS
// to 1, where every kernel takes its serial branch, so it never sees
// the Parallel fan-out's per-launch closures and goroutines.
func mallocsPerRun(procs, runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// checkAllocRow holds one row of an allocation budget to its pin. A
// serial row (procs 1) is exact: more is a regression, fewer is a gain
// the table must record. A GOMAXPROCS=4 row counts goroutine spawns,
// which depend on the scheduler's free lists, so it only has a ceiling,
// pin + 25 % + 2.
func checkAllocRow(t *testing.T, got, pin float64, procs int) {
	t.Helper()
	t.Logf("allocs/call: %.1f (pin %.0f, GOMAXPROCS=%d)", got, pin, procs)
	switch {
	case procs > 1 && got > 1.25*pin+2:
		t.Errorf("allocates %.1f times per call at GOMAXPROCS=%d, ceiling %.1f", got, procs, 1.25*pin+2)
	case procs == 1 && got != pin:
		t.Errorf("allocates %.1f times per call, pinned at %.0f: a regression if more, re-pin to %.0f if fewer", got, pin, got)
	}
}

// TestMatMulIntoZeroAllocs pins the GEMMs' steady-state allocations.
// Once the pack-panel pool is warm the serial kernels touch the heap
// zero times: all three products at an edge shape, and MatMulInto at
// the DeepLab head's GEMM (256 filters × 256·3·3 taps × 33·33 pixels).
// At GOMAXPROCS=4 the head GEMM fans out over Parallel, whose closure
// and per-worker goroutines are the whole count.
func TestMatMulIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, row := range []struct {
		name    string
		mul     func(c, a, b *Tensor, accumulate bool)
		a, b, c [2]int
		procs   int
		pin     float64
	}{
		{"edge_24x31x18", MatMulInto, [2]int{24, 31}, [2]int{31, 18}, [2]int{24, 18}, 1, 0},
		{"AT_edge_24x31x18", MatMulATInto, [2]int{31, 24}, [2]int{31, 18}, [2]int{24, 18}, 1, 0},
		{"BT_edge_24x31x18", MatMulBTInto, [2]int{24, 31}, [2]int{18, 31}, [2]int{24, 18}, 1, 0},
		{"head_256x2304x1089", MatMulInto, [2]int{256, 2304}, [2]int{2304, 1089}, [2]int{256, 1089}, 1, 0},
		{"head_256x2304x1089_mp4", MatMulInto, [2]int{256, 2304}, [2]int{2304, 1089}, [2]int{256, 1089}, 4, 11},
	} {
		t.Run(row.name, func(t *testing.T) {
			if raceEnabled && row.c[0] > 32 {
				t.Skip("head-shape GEMM: ~10 s a call under the race detector, which counts the same")
			}
			a := randTensor(rng, row.a[:]...)
			b := randTensor(rng, row.b[:]...)
			c := New(row.c[:]...)
			call := func() { row.mul(c, a, b, false) }
			var got float64
			if row.procs == 1 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				call() // warm the pack-panel pool
				got = testing.AllocsPerRun(2, call)
			} else {
				got = mallocsPerRun(row.procs, 10, call)
			}
			checkAllocRow(t, got, row.pin, row.procs)
		})
	}
}
