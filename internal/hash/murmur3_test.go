package hash

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// Reference vectors for MurmurHash3 x86 32-bit, from the canonical C++
// implementation (smhasher).
func TestSum32Vectors(t *testing.T) {
	cases := []struct {
		data string
		seed uint32
		want uint32
	}{
		{"", 0, 0},
		{"", 1, 0x514e28b7},
		{"", 0xffffffff, 0x81f16f39},
		{"test", 0, 0xba6bd213},
		{"test", 0x9747b28c, 0x704b81dc},
		{"Hello, world!", 0, 0xc0363e43},
		{"Hello, world!", 0x9747b28c, 0x24884cba},
		{"The quick brown fox jumps over the lazy dog", 0x9747b28c, 0x2fa826cd},
	}
	for _, c := range cases {
		if got := Sum32([]byte(c.data), c.seed); got != c.want {
			t.Errorf("Sum32(%q, %#x) = %#x, want %#x", c.data, c.seed, got, c.want)
		}
	}
}

// Reference vectors for MurmurHash3 x64 128-bit.
func TestSum128Vectors(t *testing.T) {
	cases := []struct {
		data           string
		seed           uint32
		wantH1, wantH2 uint64
	}{
		{"", 0, 0, 0},
		{"hello", 0, 0xcbd8a7b341bd9b02, 0x5b1e906a48ae1d19},
		{"hello, world", 0, 0x342fac623a5ebc8e, 0x4cdcbc079642414d},
		{"19 Jan 2038 at 3:14:07 AM", 0, 0xb89e5988b737affc, 0x664fc2950231b2cb},
		{"The quick brown fox jumps over the lazy dog.", 0, 0xcd99481f9ee902c9, 0x695da1a38987b6e7},
	}
	for _, c := range cases {
		h1, h2 := Sum128([]byte(c.data), c.seed)
		if h1 != c.wantH1 || h2 != c.wantH2 {
			t.Errorf("Sum128(%q) = (%#x, %#x), want (%#x, %#x)",
				c.data, h1, h2, c.wantH1, c.wantH2)
		}
	}
}

func TestSum32Deterministic(t *testing.T) {
	f := func(data []byte, seed uint32) bool {
		return Sum32(data, seed) == Sum32(data, seed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSum128SeedSensitivity(t *testing.T) {
	data := []byte("visualprint")
	a1, a2 := Sum128(data, 1)
	b1, b2 := Sum128(data, 2)
	if a1 == b1 && a2 == b2 {
		t.Error("different seeds produced identical 128-bit hashes")
	}
}

func TestSum128TailLengths(t *testing.T) {
	// Exercise every tail-switch branch (lengths 0..16) and verify inputs
	// that differ in the last byte hash differently.
	base := []byte("0123456789abcdef")
	for n := 1; n <= 16; n++ {
		a := append([]byte(nil), base[:n]...)
		b := append([]byte(nil), base[:n]...)
		b[n-1] ^= 0xff
		a1, a2 := Sum128(a, 0)
		b1, b2 := Sum128(b, 0)
		if a1 == b1 && a2 == b2 {
			t.Errorf("len %d: flipped byte did not change hash", n)
		}
	}
}

func TestSum32Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits on
	// average; assert a loose bound (>= 8 of 32).
	data := []byte("avalanche-test-data")
	orig := Sum32(data, 0)
	totalFlips := 0
	trials := 0
	for i := range data {
		for b := 0; b < 8; b++ {
			data[i] ^= 1 << b
			h := Sum32(data, 0)
			data[i] ^= 1 << b
			diff := orig ^ h
			for d := diff; d != 0; d &= d - 1 {
				totalFlips++
			}
			trials++
		}
	}
	avg := float64(totalFlips) / float64(trials)
	if avg < 8 || avg > 24 {
		t.Errorf("average flipped output bits = %.2f, want near 16", avg)
	}
}

func TestSum64MatchesSum128(t *testing.T) {
	data := []byte("sum64")
	h1, _ := Sum128(data, 7)
	if got := Sum64(data, 7); got != h1 {
		t.Errorf("Sum64 = %#x, want %#x", got, h1)
	}
}

// TestSum64Int32sMatchesSum64: hashing integers directly must equal Sum64
// of their little-endian bytes — the bucket keys of every index and
// snapshot depend on it — for every tail length and random seeds.
func TestSum64Int32sMatchesSum64(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= 12; n++ {
		for trial := 0; trial < 200; trial++ {
			v := make([]int32, n)
			for i := range v {
				v[i] = int32(rng.Uint32())
			}
			buf := make([]byte, 4*n)
			for i, x := range v {
				binary.LittleEndian.PutUint32(buf[4*i:], uint32(x))
			}
			seed := rng.Uint32()
			if got, want := Sum64Int32s(v, seed), Sum64(buf, seed); got != want {
				t.Fatalf("len %d seed %#x %v: Sum64Int32s %#x, Sum64 %#x", n, seed, v, got, want)
			}
		}
	}
}

func BenchmarkSum64Int32s_7(b *testing.B) {
	v := []int32{3, -1, 4, 1, -5, 9, 2}
	for i := 0; i < b.N; i++ {
		Sum64Int32s(v, uint32(i))
	}
}

func BenchmarkSum32_128B(b *testing.B) {
	data := make([]byte, 128)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Sum32(data, uint32(i))
	}
}

func BenchmarkSum128_128B(b *testing.B) {
	data := make([]byte, 128)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Sum128(data, uint32(i))
	}
}
