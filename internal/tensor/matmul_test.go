package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
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
// are validated against: no tiling, no packing, full IEEE propagation.
// Each element is its own dot product: start at +0, fold the rounded
// products in ascending p, then store the sum, or add it to C once
// when accumulating.
func oracleMatMulInto(c, a, b *Tensor, accumulate bool) {
	m, k, n := checkMatMul(a, b)
	checkMatMulOut(c, m, n, "matmul")
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			var s float32
			for p, av := range arow {
				s += float32(av * b.Data[p*n+j])
			}
			if accumulate {
				c.Data[i*n+j] += s
			} else {
				c.Data[i*n+j] = s
			}
		}
	}
}

// edgeDims exercises every tiling regime: below one micro-tile, exact
// tiles, one-off remainders, and panel-boundary straddles.
var edgeDims = []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 33}

// wideM, wideK and wideN cross the regimes of the 4×16 AVX2 tile:
// rows below, at and around one and two tiles; k from empty to the
// decoder's 24; columns around one and two 16-wide strips, and the
// decoder's 270 (sixteen strips and a 14-column mul2x4 tail).
var (
	wideM = []int{1, 3, 4, 5, 7, 8}
	wideK = []int{0, 1, 2, 3, 24}
	wideN = []int{15, 16, 17, 31, 32, 33, 270}
)

// forWideShapes runs fn on every wideM × wideK × wideN shape.
func forWideShapes(fn func(m, k, n int)) {
	for _, m := range wideM {
		for _, k := range wideK {
			for _, n := range wideN {
				fn(m, k, n)
			}
		}
	}
}

// requireProductsMatchOracle runs A·B, Aᵀ·B and A·Bᵀ into copies of
// base, storing or accumulating, and requires each to equal
// oracleMatMulInto bit for bit.
func requireProductsMatchOracle(t *testing.T, a, b, base *Tensor, accumulate bool) {
	t.Helper()
	m, k, n := checkMatMul(a, b)
	want := base.Clone()
	oracleMatMulInto(want, a, b, accumulate)
	at, bt := transpose(a), transpose(b)
	for _, p := range []struct {
		name string
		run  func(c *Tensor)
	}{
		{"matmul", func(c *Tensor) { MatMulInto(c, a, b, accumulate) }},
		{"matmulAT", func(c *Tensor) { MatMulATInto(c, at, b, accumulate) }},
		{"matmulBT", func(c *Tensor) { MatMulBTInto(c, a, bt, accumulate) }},
	} {
		got := base.Clone()
		p.run(got)
		requireBitIdentical(t, got, want, fmt.Sprintf("%s %dx%dx%d acc=%v", p.name, m, k, n, accumulate))
	}
}

// TestMatMulBitIdenticalToRef pins the tiled kernels' numerical
// contract for accumulate=false: every element is the same
// ascending-p register dot the reference kernel folds, so the paths
// must agree bit for bit — partial edge tiles, the 4×16 tiles with
// their row and column tails, and IEEE specials included.
func TestMatMulBitIdenticalToRef(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range edgeDims {
		for _, k := range edgeDims {
			for _, n := range edgeDims {
				requireProductsMatchOracle(t, randTensor(rng, m, k), randTensor(rng, k, n), New(m, n), false)
			}
		}
	}
	forWideShapes(func(m, k, n int) {
		a := saltedTensor(rng, 0.03, m, k)
		b := saltedTensor(rng, 0.03, k, n)
		requireProductsMatchOracle(t, a, b, saltedTensor(rng, 0.03, m, n), false)
	})
}

// TestMatMulAccumulateEdgeShapes checks C += A·B bit for bit: every
// kernel adds each finished dot product to C once, as the oracle does,
// so edge shapes, wide tiles and a salted C (−0 + +0 is +0, a NaN in C
// stays) all agree exactly.
func TestMatMulAccumulateEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 5}, {5, 4, 3}, {9, 17, 8}, {16, 9, 33}} {
		m, k, n := dims[0], dims[1], dims[2]
		requireProductsMatchOracle(t, randTensor(rng, m, k), randTensor(rng, k, n), randTensor(rng, m, n), true)
	}
	forWideShapes(func(m, k, n int) {
		a := saltedTensor(rng, 0.03, m, k)
		b := saltedTensor(rng, 0.03, k, n)
		requireProductsMatchOracle(t, a, b, saltedTensor(rng, 0.03, m, n), true)
	})
}

// TestMatMulNaNInfPropagation guards the zero-skip bugfix: a zero in A
// multiplying a NaN or Inf in B must produce NaN in C (0×NaN = NaN,
// 0×Inf = NaN). The old kernel skipped zero A values as an
// optimisation and silently reported finite results for diverged
// operands, hiding exactly the signal loss-scaling and NaN-detection
// exist to catch. The wide shapes put a zero row in every 4-row tile
// position against NaN and Inf columns in every 16-wide strip position.
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

	check := func(name string, a, b *Tensor, f func(c *Tensor)) {
		c := Full(-1, a.Dim(0), b.Dim(1))
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
	checkProducts := func(label string, a, b *Tensor) {
		check(label+" matmul", a, b, func(c *Tensor) { MatMulInto(c, a, b, false) })
		check(label+" matmulAT", a, b, func(c *Tensor) { MatMulATInto(c, transpose(a), b, false) })
		check(label+" matmulBT", a, b, func(c *Tensor) { MatMulBTInto(c, a, transpose(b), false) })
	}
	checkProducts("2x3x4", a, b)

	rng := rand.New(rand.NewSource(19))
	forWideShapes(func(m, k, n int) {
		if k == 0 {
			return
		}
		a, b := randTensor(rng, m, k), randTensor(rng, k, n)
		clear(a.Data[(m-1)*k:]) // the last row: every row position of a tile
		for j := 0; j < n; j += 5 {
			b.Data[rng.Intn(k)*n+j] = nan
			b.Data[rng.Intn(k)*n+min(j+2, n-1)] = inf
		}
		checkProducts(fmt.Sprintf("%dx%dx%d", m, k, n), a, b)
	})

	// Sanity: 0×NaN and 0×Inf really did reach C.
	c := New(2, 4)
	MatMulInto(c, a, b, false)
	if !math.IsNaN(float64(c.Data[0])) || !math.IsNaN(float64(c.Data[1])) {
		t.Fatalf("zero row × NaN/Inf columns stayed finite: %v", c.Data[:4])
	}
}

// TestMul4x16MatchesMul2x4 calls the AVX2 kernel directly on salted
// tiles, storing and accumulating into a C wider than the tile, and
// requires every element to equal the mul2x4 tiles over the same k×16
// panel split into four k×4 panels, bit for bit, with C untouched
// outside the tile. It logs which kernel ran: a CPU without AVX2 (or a
// non-amd64 build) skips, naming why, but a Linux host whose
// /proc/cpuinfo lists avx2 fails if the CPUID gate is off.
func TestMul4x16MatchesMul2x4(t *testing.T) {
	if !wideKernel {
		if info, err := os.ReadFile("/proc/cpuinfo"); err == nil && runtime.GOARCH == "amd64" &&
			regexp.MustCompile(`(?m)^flags\s*:.*\bavx2\b`).Match(info) {
			t.Fatal("/proc/cpuinfo lists avx2 but hasAVX2 reported false: matmul is on the pure-Go path")
		}
		t.Skipf("no AVX2 kernel on this CPU (GOARCH %s): matmul runs mul2x4 only", runtime.GOARCH)
	}
	t.Logf("kernel: mul4x16 (AVX2, GOARCH %s)", runtime.GOARCH)
	const cs = nrWide + 3
	rng := rand.New(rand.NewSource(23))
	for _, k := range []int{0, 1, 2, 3, 5, 24, 270} {
		a := saltedTensor(rng, 0.03, mrWide, k)
		panel := saltedTensor(rng, 0.03, k, nrWide)
		narrow := make([]float32, k*nrTile)
		for _, acc := range []bool{false, true} {
			base := saltedTensor(rng, 0.03, mrWide+1, cs)
			got, want := base.Clone(), base.Clone()
			mul4x16(got.Data, cs, a.Data, k, panel.Data, acc)
			for q0 := 0; q0 < nrWide; q0 += nrTile {
				for p := 0; p < k; p++ {
					copy(narrow[p*nrTile:(p+1)*nrTile], panel.Data[p*nrWide+q0:])
				}
				for r := 0; r < mrWide; r += mrTile {
					mul2x4(want.Data[r*cs+q0:], cs, a.Data[r*k:], k, narrow, nrTile, acc)
				}
			}
			requireBitIdentical(t, got, want, fmt.Sprintf("mul4x16 k=%d acc=%v", k, acc))
		}
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
// the fan-out's per-launch closures and goroutines.
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
	case procs > 1 && got > float64(1.25*pin)+2:
		t.Errorf("allocates %.1f times per call at GOMAXPROCS=%d, ceiling %.1f", got, procs, float64(1.25*pin)+2)
	case procs == 1 && got != pin:
		t.Errorf("allocates %.1f times per call, pinned at %.0f: a regression if more, re-pin to %.0f if fewer", got, pin, got)
	}
}

// TestMatMulIntoZeroAllocs pins the GEMMs' steady-state allocations.
// Once the pack-panel pool is warm the serial kernels touch the heap
// zero times: all three products at an edge shape, and MatMulInto at
// the DeepLab head's GEMM (256 filters × 256·3·3 taps × 33·33 pixels).
// At GOMAXPROCS=4 the head GEMM fans out over parallelTiles, whose closure
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
