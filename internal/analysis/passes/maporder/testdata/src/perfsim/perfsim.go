// Package perfsim shares its basename with a deterministic target
// package, so the maporder pass is active here.
package perfsim

import (
	"detutil"
	"netmodel"
	"sort"
)

// Gather folds floats in map order: flagged directly.
func Gather(m map[int]float64) float64 {
	var s float64
	for _, v := range m { // want "order-sensitive map iteration in perfsim"
		s += v
	}
	return s
}

// Sorted collects then sorts: allowed.
func Sorted(m map[int]float64) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

// Count folds an integer: order-insensitive, allowed.
func Count(m map[int]bool) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// Links calls a closure-list helper whose range is reported in
// netmodel itself, so the call site carries no finding.
func Links(m map[string]float64) float64 {
	return netmodel.LinkSum(m)
}

// Off calls a helper outside the closure list: not flagged anywhere.
func Off(m map[string]float64) float64 {
	return detutil.SumVals(m)
}

// Smoke demonstrates a justified per-site suppression.
func Smoke(m map[int]float64) float64 {
	var s float64
	//seglint:ignore maporder fixture: diagnostic-only aggregate, never committed
	for _, v := range m {
		s += v
	}
	return s
}
