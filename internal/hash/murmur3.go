// Package hash implements MurmurHash3, the non-cryptographic hash the paper
// selects for Bloom-filter indexing ("a hash is selected for execution speed
// over cryptographic guarantees, such as Murmur-3"). Both the 32-bit x86 and
// the 128-bit x64 variants are provided; the 128-bit variant supplies the
// independent hash pairs used for double hashing into Bloom filters.
package hash

import "encoding/binary"

const (
	c1_32 uint32 = 0xcc9e2d51
	c2_32 uint32 = 0x1b873593
)

// Sum32 computes the MurmurHash3 x86 32-bit hash of data with the given
// seed.
func Sum32(data []byte, seed uint32) uint32 {
	h := seed
	n := len(data)
	// Body: 4-byte blocks.
	for len(data) >= 4 {
		k := binary.LittleEndian.Uint32(data)
		data = data[4:]

		k *= c1_32
		k = (k << 15) | (k >> 17)
		k *= c2_32

		h ^= k
		h = (h << 13) | (h >> 19)
		h = h*5 + 0xe6546b64
	}
	// Tail.
	var k uint32
	switch len(data) {
	case 3:
		k ^= uint32(data[2]) << 16
		fallthrough
	case 2:
		k ^= uint32(data[1]) << 8
		fallthrough
	case 1:
		k ^= uint32(data[0])
		k *= c1_32
		k = (k << 15) | (k >> 17)
		k *= c2_32
		h ^= k
	}
	// Finalization.
	h ^= uint32(n)
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

const (
	c1_64 uint64 = 0x87c37b91114253d5
	c2_64 uint64 = 0x4cf5ad432745937f
)

func rotl64(x uint64, r uint) uint64 { return (x << r) | (x >> (64 - r)) }

func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// Sum128 computes the MurmurHash3 x64 128-bit hash of data with the given
// seed, returned as two 64-bit words. The two words are effectively
// independent, which lets a Bloom filter derive k index functions as
// h1 + i*h2 (Kirsch–Mitzenmacher double hashing).
func Sum128(data []byte, seed uint32) (uint64, uint64) {
	h1 := uint64(seed)
	h2 := uint64(seed)
	n := len(data)

	for len(data) >= 16 {
		h1 = mixH1(h1, h2, binary.LittleEndian.Uint64(data))
		h2 = mixH2(h1, h2, binary.LittleEndian.Uint64(data[8:]))
		data = data[16:]
	}

	var k1, k2 uint64
	switch len(data) {
	case 15:
		k2 ^= uint64(data[14]) << 48
		fallthrough
	case 14:
		k2 ^= uint64(data[13]) << 40
		fallthrough
	case 13:
		k2 ^= uint64(data[12]) << 32
		fallthrough
	case 12:
		k2 ^= uint64(data[11]) << 24
		fallthrough
	case 11:
		k2 ^= uint64(data[10]) << 16
		fallthrough
	case 10:
		k2 ^= uint64(data[9]) << 8
		fallthrough
	case 9:
		k2 ^= uint64(data[8])
		h2 ^= mixK2(k2)
		fallthrough
	case 8:
		k1 ^= uint64(data[7]) << 56
		fallthrough
	case 7:
		k1 ^= uint64(data[6]) << 48
		fallthrough
	case 6:
		k1 ^= uint64(data[5]) << 40
		fallthrough
	case 5:
		k1 ^= uint64(data[4]) << 32
		fallthrough
	case 4:
		k1 ^= uint64(data[3]) << 24
		fallthrough
	case 3:
		k1 ^= uint64(data[2]) << 16
		fallthrough
	case 2:
		k1 ^= uint64(data[1]) << 8
		fallthrough
	case 1:
		k1 ^= uint64(data[0])
		h1 ^= mixK1(k1)
	}
	return finish(h1, h2, n)
}

// mixK1 and mixK2 scramble a block's first and second word.
func mixK1(k uint64) uint64 { return rotl64(k*c1_64, 31) * c2_64 }
func mixK2(k uint64) uint64 { return rotl64(k*c2_64, 33) * c1_64 }

// mixH1 and mixH2 fold one 16-byte block, read as the little-endian words
// k1 and k2, into the state: h1 first, then h2 from the new h1. Two halves
// rather than one function, so that each stays small enough to inline.
func mixH1(h1, h2, k1 uint64) uint64 { return (rotl64(h1^mixK1(k1), 27)+h2)*5 + 0x52dce729 }
func mixH2(h1, h2, k2 uint64) uint64 { return (rotl64(h2^mixK2(k2), 31)+h1)*5 + 0x38495ab5 }

// finish mixes the input length n into the state and finalizes both words.
func finish(h1, h2 uint64, n int) (uint64, uint64) {
	h1 ^= uint64(n)
	h2 ^= uint64(n)
	h1 += h2
	h2 += h1
	h1 = fmix64(h1)
	h2 = fmix64(h2)
	h1 += h2
	h2 += h1
	return h1, h2
}

// Sum64 returns the first 64-bit word of Sum128; convenient for map keys.
func Sum64(data []byte, seed uint32) uint64 {
	h1, _ := Sum128(data, seed)
	return h1
}

// Sum64Int32s is Sum64 of the little-endian bytes of v, hashed straight
// from the integers: four of them fill one 16-byte block, and a tail of one
// to three fills the same lanes the byte tail would. The LSH bucket keys
// use it, so a coordinate is never serialized to be hashed.
func Sum64Int32s(v []int32, seed uint32) uint64 {
	h1 := uint64(seed)
	h2 := uint64(seed)
	n := 4 * len(v)

	for len(v) >= 4 {
		w := v[:4:4]
		h1 = mixH1(h1, h2, uint64(uint32(w[0]))|uint64(uint32(w[1]))<<32)
		h2 = mixH2(h1, h2, uint64(uint32(w[2]))|uint64(uint32(w[3]))<<32)
		v = v[4:]
	}

	var k1 uint64
	switch len(v) {
	case 3:
		h2 ^= mixK2(uint64(uint32(v[2])))
		fallthrough
	case 2:
		k1 = uint64(uint32(v[1])) << 32
		fallthrough
	case 1:
		k1 |= uint64(uint32(v[0]))
		h1 ^= mixK1(k1)
	}
	h1, _ = finish(h1, h2, n)
	return h1
}
