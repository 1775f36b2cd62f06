package odelta

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"visualprint/internal/core"
)

// allocBytes reports the heap bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeChain covers the decoder a client runs on every delta sync
// answer. DecodeChain may not panic, and what it builds is bounded by what
// it was sent: a record count is a claim, not a reservation. Whatever it
// accepts re-encodes to the bytes it came from, and applying it to an empty
// oracle fails cleanly or succeeds, never panics.
func FuzzDecodeChain(f *testing.F) {
	p := core.TestParams()
	empty, err := core.New(p)
	if err != nil {
		f.Fatal(err)
	}
	cur := empty.Clone()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5; i++ {
		if err := cur.Insert(randDesc(rng, p.LSH.Dim)); err != nil {
			f.Fatal(err)
		}
	}
	sparse, err := Diff(empty, cur, 0, 1, 0)
	if err != nil {
		f.Fatal(err)
	}
	full, err := fullRecord(cur, 0, 1, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeChain([]*Record{sparse}))
	f.Add(EncodeChain([]*Record{full}))
	f.Add(EncodeChain(nil))
	// Hostile count: four billion records announced, none sent.
	f.Add(binary.AppendUvarint([]byte(chainMagic), 1<<32-1))
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []*Record
		var err error
		if got := allocBytes(func() { recs, err = DecodeChain(data) }); got > 64<<10+16*uint64(len(data)) {
			t.Fatalf("DecodeChain allocated %d bytes for a %d-byte input", got, len(data))
		}
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeChain(recs), data) {
			t.Fatal("accepted chain does not re-encode to itself")
		}
		base, err := core.New(p)
		if err != nil {
			t.Fatal(err)
		}
		ApplyChain(base, recs) //nolint:errcheck // only a panic fails
	})
}
