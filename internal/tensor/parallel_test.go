package tensor

import (
	"sync"
	"sync/atomic"
	"testing"
)

// parallel splits [0, n) the way the GEMM entry points do: whole
// mul4x16 row tiles over parallelDegree(n) workers.
func parallel(n int, fn func(lo, hi int)) {
	parallelTiles(parallelDegree(n), n, mrWide, fn)
}

// TestParallelCoversEachIndexOnce verifies the partition tiles [0,n)
// exactly: every index visited once, none skipped, none duplicated,
// and every chunk but the last a whole number of tiles.
func TestParallelCoversEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000, 4096, 4097} {
		for _, workers := range []int{1, 2, 3, 4} {
			for _, tile := range []int{1, mrWide} {
				hits := make([]int32, n)
				var ragged atomic.Int32
				parallelTiles(workers, n, tile, func(lo, hi int) {
					if lo%tile != 0 || (hi != n && hi%tile != 0) {
						ragged.Add(1)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("n=%d workers=%d tile=%d: index %d visited %d times", n, workers, tile, i, h)
					}
				}
				if ragged.Load() != 0 {
					t.Fatalf("n=%d workers=%d tile=%d: a chunk boundary is off the tile grid", n, workers, tile)
				}
			}
		}
	}
}

// TestParallelDisjointWrites writes to a shared slice without any
// synchronisation beyond the partition itself. Under -race this proves
// workers never hand overlapping [lo,hi) ranges to fn.
func TestParallelDisjointWrites(t *testing.T) {
	const n = 100_000
	buf := make([]float32, n)
	parallel(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			buf[i] = float32(i)
		}
	})
	for i, v := range buf {
		if v != float32(i) {
			t.Fatalf("index %d = %g", i, v)
		}
	}
}

// TestParallelConcurrentCalls hammers the fan-out from many goroutines at
// once, each over its own output slice. parallelTiles keeps no package
// state, so concurrent calls must not interfere; -race checks it.
func TestParallelConcurrentCalls(t *testing.T) {
	const callers = 16
	const n = 10_000
	outs := make([][]float32, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]float32, n)
			parallel(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					buf[i] = float32(g*n + i)
				}
			})
			outs[g] = buf
		}(g)
	}
	wg.Wait()
	for g, buf := range outs {
		for i, v := range buf {
			if v != float32(g*n+i) {
				t.Fatalf("caller %d index %d = %g", g, i, v)
			}
		}
	}
}

// TestParallelNestedCalls runs a fan-out inside a fan-out — the shape a
// parallel conv layer calling a parallel matmul produces. It must not
// deadlock or misPartition.
func TestParallelNestedCalls(t *testing.T) {
	const rows, cols = 32, 257
	buf := make([]float32, rows*cols)
	parallel(rows, func(rlo, rhi int) {
		for r := rlo; r < rhi; r++ {
			row := buf[r*cols : (r+1)*cols]
			parallel(cols, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					row[i] = float32(r)
				}
			})
		}
	})
	for r := 0; r < rows; r++ {
		for i := 0; i < cols; i++ {
			if buf[r*cols+i] != float32(r) {
				t.Fatalf("row %d col %d = %g", r, i, buf[r*cols+i])
			}
		}
	}
}
