package dist

import (
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

// TestSqMatchesScalar proves the unrolled kernel equal to the scalar
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
// the unrolling win stays visible in `go test -bench Sq ./internal/dist`.
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
// block or two).
func BenchmarkSqLimit128(b *testing.B) {
	x, y := make([]byte, 128), make([]byte, 128)
	for i := range x {
		x[i], y[i] = byte(i*7), byte(i*13)
	}
	for _, bc := range []struct {
		name  string
		limit int
	}{
		{"never", 1 << 30},
		{"early", Sq(x, y) / 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(128)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += SqLimit(x, y, bc.limit)
			}
		})
	}
}
