// Package detutil is outside the deterministic packages' import
// closure, so the maporder pass does not check it.
package detutil

// SumVals folds float values in map iteration order — order-sensitive,
// but not flagged here: no deterministic package imports detutil.
func SumVals(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}
