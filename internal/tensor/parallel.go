package tensor

import (
	"runtime"
	"sync"
)

// parallelDegree reports how many workers Parallel would use for a
// range of size n. Kernels that must stay allocation-free in steady
// state branch on it: when it returns 1 they call their worker body
// directly, so the closure Parallel would need never exists (escape
// analysis is flow-insensitive — a closure that reaches Parallel on
// any path is heap-allocated even on the serial path).
func parallelDegree(n int) int {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	return workers
}

// Parallel executes fn(lo, hi) over a partition of [0, n) using up to
// GOMAXPROCS goroutines. With a single worker (or tiny n) it runs
// inline, so the kernels have no goroutine overhead on one core.
func Parallel(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if parallelDegree(n) <= 1 {
		fn(0, n)
		return
	}
	workers := parallelDegree(n)
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
