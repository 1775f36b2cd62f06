package pose

// pairSum sums the residuals of pairs in pair order, returning as soon as
// the running sum reaches limit (see objective). Pairs run two at a time in
// the SSE2 kernel pairSum2 (residual_amd64.s), each lane with the float64
// operations of residual and acos in Go's order, and the sum stays serial in
// the kernel: lane 0 is added and checked against limit, then lane 1. So a
// full sum, an aborted one and the pair it aborts at are those of
// pairSumGeneric, which adds an odd last pair. Every pair's endpoints must
// index dirs.
func pairSum(pairs []pairGeometry, dirs []ptDir, limit float64) float64 {
	even := len(pairs) &^ 1
	s := pairSum2(pairs[:even], dirs, limit)
	if even > 0 && s >= limit {
		return s // the kernel stopped at limit
	}
	return pairSumGeneric(pairs[even:], dirs, s, limit)
}

// pairSum2 sums the residuals of pairs, an even count, from zero and
// returns the sum once it reaches limit or after the last pair.
//
//go:noescape
func pairSum2(pairs []pairGeometry, dirs []ptDir, limit float64) (s float64)
