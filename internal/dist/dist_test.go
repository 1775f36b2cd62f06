package dist

import (
	"math"
	"math/rand"
	"testing"
)

// fillPair builds two n-byte vectors: adversarial patterns for modes 0-2
// (extremes that maximize per-term magnitude, identical vectors), random
// bytes otherwise.
func fillPair(rng *rand.Rand, n, mode int) ([]byte, []byte) {
	a, b := make([]byte, n), make([]byte, n)
	for i := range a {
		switch mode {
		case 0: // extremes: maximum squared difference every byte
			a[i], b[i] = 0, 255
		case 1:
			a[i], b[i] = 255, 0
		case 2: // identical
			v := byte(rng.Intn(256))
			a[i], b[i] = v, v
		default:
			a[i], b[i] = byte(rng.Intn(256)), byte(rng.Intn(256))
		}
	}
	return a, b
}

// TestSqMatchesScalar proves the Sq kernel equal to the scalar
// reference across every length 0..256 (covering all tail residues), with
// adversarial byte patterns (extremes that maximize per-term magnitude) and
// a large randomized sweep.
func TestSqMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 256; n++ {
		for mode := 0; mode < 8; mode++ {
			a, b := fillPair(rng, n, mode)
			if got, want := Sq(a, b), SqScalar(a, b); got != want {
				t.Fatalf("len %d mode %d: Sq=%d scalar=%d", n, mode, got, want)
			}
		}
	}
}

// TestSqLongerB pins that a longer b is measured over len(a) bytes only —
// the behavior callers with equal-length slices never see but the reslice
// must preserve.
func TestSqLongerB(t *testing.T) {
	a := []byte{1, 2, 3}
	b := []byte{4, 6, 8, 250}
	want := 3*3 + 4*4 + 5*5
	if got := Sq(a, b); got != want {
		t.Fatalf("Sq over prefix = %d, want %d", got, want)
	}
}

// TestSqShorterBPanics pins the bounds contract: b shorter than a panics,
// same as the scalar loop indexing past b.
func TestSqShorterBPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sq with short b did not panic")
		}
	}()
	Sq(make([]byte, 8), make([]byte, 7))
}

// TestSqZeroAlloc guards the kernel against silently growing an allocation
// (an escape, an implicit conversion): the hot path must stay on the stack.
func TestSqZeroAlloc(t *testing.T) {
	a, b := make([]byte, 128), make([]byte, 128)
	for i := range a {
		a[i], b[i] = byte(i), byte(255-i)
	}
	sink := 0
	allocs := testing.AllocsPerRun(100, func() {
		sink += Sq(a, b)
	})
	if allocs != 0 {
		t.Fatalf("Sq allocates %.1f objects per call, want 0", allocs)
	}
	_ = sink
}

var benchSink int

// BenchmarkSq128 pins the kernel's throughput on the SIFT descriptor size.
// Run with -benchmem: the 0 B/op, 0 allocs/op line is part of the contract
// (see TestSqZeroAlloc for the enforced version).
func BenchmarkSq128(b *testing.B) {
	x, y := make([]byte, 128), make([]byte, 128)
	for i := range x {
		x[i], y[i] = byte(i*7), byte(i*13)
	}
	b.SetBytes(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink += Sq(x, y)
	}
}

// BenchmarkSqScalar128 keeps the reference measurable next to the kernel so
// the kernel's gain stays visible in `go test -bench Sq ./internal/dist`.
func BenchmarkSqScalar128(b *testing.B) {
	x, y := make([]byte, 128), make([]byte, 128)
	for i := range x {
		x[i], y[i] = byte(i*7), byte(i*13)
	}
	b.SetBytes(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink += SqScalar(x, y)
	}
}

// TestSqLimitContract: for every length 0..256 and the same adversarial
// fills as TestSqMatchesScalar, SqLimit returns exactly Sq when Sq < limit
// and some value >= limit otherwise — at limits straddling the true distance,
// at each 16-byte block's partial sum (where the early exit decides), and at
// the extremes.
func TestSqLimitContract(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	check := func(a, b []byte, limit int) {
		t.Helper()
		want := SqScalar(a, b)
		got := SqLimit(a, b, limit)
		if want < limit && got != want {
			t.Fatalf("len %d limit %d: SqLimit=%d, want exact %d", len(a), limit, got, want)
		}
		if want >= limit && got < limit {
			t.Fatalf("len %d limit %d: SqLimit=%d below the limit, true distance %d", len(a), limit, got, want)
		}
	}
	for n := 0; n <= 256; n++ {
		for mode := 0; mode < 8; mode++ {
			a, b := fillPair(rng, n, mode)
			full := SqScalar(a, b)
			limits := []int{-1, 0, 1, full - 1, full, full + 1, full / 2, rng.Intn(full + 2), int(^uint(0) >> 1)}
			for end := 16; end <= n; end += 16 {
				part := SqScalar(a[:end], b[:end])
				limits = append(limits, part-1, part, part+1)
			}
			for _, limit := range limits {
				check(a, b, limit)
			}
		}
	}
}

// TestSqLimitBounds pins Sq's bounds contract on SqLimit: a longer b is
// measured over len(a) bytes, a shorter one panics.
func TestSqLimitBounds(t *testing.T) {
	if got, want := SqLimit([]byte{1, 2, 3}, []byte{4, 6, 8, 250}, 1<<30), 3*3+4*4+5*5; got != want {
		t.Fatalf("SqLimit over prefix = %d, want %d", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SqLimit with short b did not panic")
		}
	}()
	SqLimit(make([]byte, 32), make([]byte, 31), 1<<30)
}

// BenchmarkSqLimit128 brackets the early exit: a limit nothing reaches (the
// full walk plus eight checks — the overhead over Sq) and the limit a top-2
// selection typically holds against a random candidate (exit after the first
// block or two). The asm sub-benchmarks run SqLimit (the SSE2 kernel on
// amd64), the generic ones its portable Go twin.
func BenchmarkSqLimit128(b *testing.B) {
	x, y := make([]byte, 128), make([]byte, 128)
	for i := range x {
		x[i], y[i] = byte(i*7), byte(i*13)
	}
	for _, k := range []struct {
		name string
		fn   func(a, b []byte, limit int) int
	}{{"asm", SqLimit}, {"generic", sqLimitGeneric}} {
		for _, bc := range []struct {
			name  string
			limit int
		}{
			{"never", 1 << 30},
			{"early", Sq(x, y) / 8},
		} {
			b.Run(k.name+"/"+bc.name, func(b *testing.B) {
				b.SetBytes(128)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink += k.fn(x, y, bc.limit)
				}
			})
		}
	}
}

// parityPairs calls fn on operand pairs of every length 0..300, each
// starting at every offset 0..15 of its buffer (b at a different offset
// from a, so the kernels' unaligned loads see every alignment pair), filled
// with each of fillPair's extreme, identical and random patterns.
func parityPairs(fn func(a, b []byte)) {
	rng := rand.New(rand.NewSource(40))
	for n := 0; n <= 300; n++ {
		for off := 0; off < 16; off++ {
			for _, mode := range []int{0, 1, 2, 3} {
				x, y := fillPair(rng, n, mode)
				bufA, bufB := make([]byte, off+n), make([]byte, (off*5+3)%16+n)
				a, b := bufA[off:], bufB[len(bufB)-n:]
				copy(a, x)
				copy(b, y)
				fn(a, b)
			}
		}
	}
}

// TestSqMatchesGeneric compares the Sq kernel (SSE2 on amd64) with its
// generic Go twin and the scalar reference on every length, alignment and
// fill of parityPairs, and on maximal-difference vectors long enough that
// the assembly folds its 32-bit lanes into the total more than once.
func TestSqMatchesGeneric(t *testing.T) {
	parityPairs(func(a, b []byte) {
		if got, want := Sq(a, b), sqGeneric(a, b); got != want || want != SqScalar(a, b) {
			t.Fatalf("len %d: Sq=%d generic=%d scalar=%d", len(a), got, want, SqScalar(a, b))
		}
	})
	for _, n := range []int{2048 * 16, 2048*16 + 16, 2*2048*16 + 7} {
		a, b := make([]byte, n), make([]byte, n)
		for i := range b {
			b[i] = 255
		}
		if got, want := Sq(a, b), n*255*255; got != want || sqGeneric(a, b) != want {
			t.Fatalf("len %d: Sq=%d generic=%d, want %d", n, got, sqGeneric(a, b), want)
		}
	}
}

// TestSqLimitMatchesGeneric compares the SqLimit kernel with its generic
// twin value for value, early-exit partial sums included, on every pair of
// parityPairs at limits -1, 0, MaxInt, the full distance ±1 and each
// 16-byte block's partial sum −1, exactly and +1 — the values at which the
// exit after that block is decided.
func TestSqLimitMatchesGeneric(t *testing.T) {
	parityPairs(func(a, b []byte) {
		full := SqScalar(a, b)
		limits := []int{-1, 0, math.MaxInt, full - 1, full, full + 1}
		for end := 16; end <= len(a); end += 16 {
			part := SqScalar(a[:end], b[:end])
			limits = append(limits, part-1, part, part+1)
		}
		for _, limit := range limits {
			if got, want := SqLimit(a, b, limit), sqLimitGeneric(a, b, limit); got != want {
				t.Fatalf("len %d limit %d: SqLimit=%d generic=%d", len(a), limit, got, want)
			}
		}
	})
}

// FuzzSqLimit holds the SqLimit kernel to its contract against SqScalar —
// exact below the limit, at or above it otherwise — and to its generic twin
// value for value, and Sq to SqScalar, on arbitrary bytes and limits.
func FuzzSqLimit(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{4, 6, 8}, 10)
	f.Add(make([]byte, 128), make([]byte, 128), 0)
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz"), []byte("zyxwvutsrqponmlkjihgfedcba9876543210"), 100000)
	f.Fuzz(func(t *testing.T, a, b []byte, limit int) {
		n := min(len(a), len(b))
		a, b = a[:n], b[:n]
		want := SqScalar(a, b)
		if got := Sq(a, b); got != want {
			t.Fatalf("Sq=%d, scalar %d", got, want)
		}
		got := SqLimit(a, b, limit)
		if want < limit && got != want {
			t.Fatalf("limit %d: SqLimit=%d, want exact %d", limit, got, want)
		}
		if want >= limit && got < limit {
			t.Fatalf("limit %d: SqLimit=%d below the limit, true distance %d", limit, got, want)
		}
		if g := sqLimitGeneric(a, b, limit); got != g {
			t.Fatalf("limit %d: SqLimit=%d generic=%d", limit, got, g)
		}
	})
}
