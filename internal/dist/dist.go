// Package dist provides the uint8 descriptor-distance kernel shared by
// every byte-vector hot loop in the system: the LSH candidate scoring path
// (the innermost loop of every Locate), the cluster-stage brute-force and
// LSH matchers, and the SIFT descriptor type.
//
// The kernel computes the squared Euclidean distance (sum of squared
// differences) over byte vectors — 128 bytes for SIFT descriptors. On amd64
// it is SSE2 assembly taking 16 bytes per step (widen to 16-bit words,
// subtract, multiply-add pairs into 32-bit lanes); elsewhere it is the
// generic Go loop, 8-way unrolled with explicit bounds-check elimination.
// The sum is integer arithmetic, so any summation order produces the
// identical result: both kernels are exactly equal to the scalar reference
// on every input, pinned by exhaustive equivalence tests
// (TestSqMatchesScalar, TestSqMatchesGeneric) and guarded against allocation
// and silent regression by the pinned benchmarks in dist_test.go. SqLimit is
// the same sum with an early exit for top-n selection.
package dist

// Sq returns the squared Euclidean distance between a and b over the first
// len(a) bytes. b must be at least as long as a (the reslice panics
// otherwise, matching the scalar loop's bounds behavior).
func Sq(a, b []byte) int { return sq(a, b[:len(a)]) }

// SqLimit is Sq for callers that only need distances below limit (a top-n
// selection comparing against its current n-th best): it returns the exact
// Sq(a, b) when that is < limit, and otherwise some partial sum that is
// already >= limit. The running sum is checked after every 16 bytes, so a
// losing candidate costs a fraction of the 128-byte walk while the check
// stays off the per-byte path; the partial sum returned is the sum over the
// first 16·k bytes at the first k where it reaches limit, on every GOARCH.
// Same bounds contract as Sq.
func SqLimit(a, b []byte, limit int) int { return sqLimit(a, b[:len(a)], limit) }

// sqGeneric is Sq in portable Go: the kernel off amd64 and the reference
// the assembly is compared against. The main loop walks 8 bytes per
// iteration over capacity-clamped subslices, which the compiler proves
// in-bounds once per iteration instead of once per byte; the tail loop
// handles the final len(a)%8 bytes.
func sqGeneric(a, b []byte) int {
	// Hoisted bounds check: after this reslice the compiler knows
	// len(b) == len(a) and drops the per-element checks on b; the i+8
	// loop bound then proves every unrolled index in range on a too.
	b = b[:len(a)]
	s := 0
	i := 0
	for ; i+8 <= len(a); i += 8 {
		d0 := int(a[i]) - int(b[i])
		d1 := int(a[i+1]) - int(b[i+1])
		d2 := int(a[i+2]) - int(b[i+2])
		d3 := int(a[i+3]) - int(b[i+3])
		d4 := int(a[i+4]) - int(b[i+4])
		d5 := int(a[i+5]) - int(b[i+5])
		d6 := int(a[i+6]) - int(b[i+6])
		d7 := int(a[i+7]) - int(b[i+7])
		s += d0*d0 + d1*d1 + d2*d2 + d3*d3
		s += d4*d4 + d5*d5 + d6*d6 + d7*d7
	}
	for ; i < len(a); i++ {
		d := int(a[i]) - int(b[i])
		s += d * d
	}
	return s
}

// sqLimitGeneric is SqLimit in portable Go, the twin of sqGeneric: 16
// bytes (two of its unrolled steps) between checks of the running sum.
func sqLimitGeneric(a, b []byte, limit int) int {
	b = b[:len(a)]
	s := 0
	i := 0
	for ; i+16 <= len(a); i += 16 {
		x, y := a[i:i+16:i+16], b[i:i+16:i+16]
		d0 := int(x[0]) - int(y[0])
		d1 := int(x[1]) - int(y[1])
		d2 := int(x[2]) - int(y[2])
		d3 := int(x[3]) - int(y[3])
		d4 := int(x[4]) - int(y[4])
		d5 := int(x[5]) - int(y[5])
		d6 := int(x[6]) - int(y[6])
		d7 := int(x[7]) - int(y[7])
		s += d0*d0 + d1*d1 + d2*d2 + d3*d3
		s += d4*d4 + d5*d5 + d6*d6 + d7*d7
		d0 = int(x[8]) - int(y[8])
		d1 = int(x[9]) - int(y[9])
		d2 = int(x[10]) - int(y[10])
		d3 = int(x[11]) - int(y[11])
		d4 = int(x[12]) - int(y[12])
		d5 = int(x[13]) - int(y[13])
		d6 = int(x[14]) - int(y[14])
		d7 = int(x[15]) - int(y[15])
		s += d0*d0 + d1*d1 + d2*d2 + d3*d3
		s += d4*d4 + d5*d5 + d6*d6 + d7*d7
		if s >= limit {
			return s
		}
	}
	return s + sqGeneric(a[i:], b[i:])
}

// SqScalar is the one-byte-at-a-time reference implementation the kernels
// are verified against. It is exported so bit-identity tests in other
// packages can compare against the same reference the kernel's own
// equivalence suite uses; production paths call Sq.
func SqScalar(a, b []byte) int {
	s := 0
	for i := range a {
		d := int(a[i]) - int(b[i])
		s += d * d
	}
	return s
}
