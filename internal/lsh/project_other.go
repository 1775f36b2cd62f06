//go:build !amd64

package lsh

// project is projectGeneric: the assembly kernel exists only on amd64.
func project(acc *[lanes]float32, blk [][lanes]float32, vec []float32) {
	projectGeneric(acc, blk, vec)
}
