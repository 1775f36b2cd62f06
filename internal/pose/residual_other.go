//go:build !amd64

package pose

// pairSum is pairSumGeneric from zero: the assembly kernel exists only on
// amd64.
func pairSum(pairs []pairGeometry, dirs []ptDir, limit float64) float64 {
	return pairSumGeneric(pairs, dirs, 0, limit)
}
