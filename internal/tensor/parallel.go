package tensor

import (
	"runtime"
	"sync"
)

// parallelDegree reports how many workers a GOMAXPROCS-wide kernel (the
// MatMul…Into entry points) splits a range of size n over. Kernels that
// must stay allocation-free in steady state branch on it (or on
// Workspace.degree): when it returns 1 they call their worker body
// directly, so the closure a fan-out would need never exists (escape
// analysis is flow-insensitive — a closure that reaches parallelOver on
// any path is heap-allocated even on the serial path).
func parallelDegree(n int) int {
	return min(runtime.GOMAXPROCS(0), n)
}

// parallelOver executes fn(lo, hi) over a partition of [0, n) into at
// most workers chunks, one goroutine each, inline when workers <= 1 so
// the kernels have no goroutine overhead on one core. The workspace
// kernels pass their rank's budget (Workspace.degree).
func parallelOver(workers, n int, fn func(lo, hi int)) {
	parallelTiles(workers, n, 1, fn)
}

// parallelTiles is parallelOver with every chunk but the last a
// multiple of tile, so a GEMM worker's rows split into whole
// micro-tiles wherever n allows. Rounding up may leave fewer chunks
// than workers.
func parallelTiles(workers, n, tile int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	chunk = (chunk + tile - 1) / tile * tile
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
