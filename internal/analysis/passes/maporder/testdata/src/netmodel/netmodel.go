// Package netmodel shares its basename with a package in the
// deterministic packages' import closure, so the maporder pass checks
// it even though it is not one of the six deterministic packages.
package netmodel

// LinkSum folds per-link costs in map order: flagged at the range.
func LinkSum(costs map[string]float64) float64 {
	var s float64
	for _, c := range costs { // want "order-sensitive map iteration in netmodel"
		s += c
	}
	return s
}
