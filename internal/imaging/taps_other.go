//go:build !amd64

package imaging

// addTaps is addTapsGeneric: the assembly sweeps exist only on amd64.
func addTaps(dst, k []float32, row func(i int) []float32) { addTapsGeneric(dst, k, row) }
