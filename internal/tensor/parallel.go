package tensor

import (
	"runtime"
	"sync"
)

// parallelDegree reports how many workers Parallel would use for a
// range of size n. Kernels that must stay allocation-free in steady
// state branch on it (or on Workspace.degree): when it returns 1 they
// call their worker body directly, so the closure Parallel would need
// never exists (escape analysis is flow-insensitive — a closure that
// reaches Parallel on any path is heap-allocated even on the serial
// path).
func parallelDegree(n int) int {
	return min(runtime.GOMAXPROCS(0), n)
}

// Parallel executes fn(lo, hi) over a partition of [0, n) using up to
// GOMAXPROCS goroutines. With a single worker (or tiny n) it runs
// inline, so the kernels have no goroutine overhead on one core.
func Parallel(n int, fn func(lo, hi int)) {
	parallelOver(parallelDegree(n), n, fn)
}

// parallelOver is Parallel at a given degree: fn(lo, hi) over a
// partition of [0, n) into at most workers chunks, inline when
// workers <= 1. The workspace kernels pass their rank's budget
// (Workspace.degree).
func parallelOver(workers, n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
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
