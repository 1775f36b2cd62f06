package lsh

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

func TestIndexSerializeRoundTrip(t *testing.T) {
	p := Params{L: 6, M: 4, W: 400, Dim: 32, Seed: 9}
	ix, err := NewIndex(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	descs := make([][]byte, 500)
	for i := range descs {
		d := make([]byte, p.Dim)
		for j := range d {
			d[j] = byte(rng.Intn(256))
		}
		descs[i] = d
		if _, err := ix.Insert(append([]byte(nil), d...)); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	ix2, err := ReadIndex(&buf, p)
	if err != nil {
		t.Fatal(err)
	}

	if ix2.Len() != ix.Len() {
		t.Fatalf("len %d != %d", ix2.Len(), ix.Len())
	}
	if !reflect.DeepEqual(ix.h.p, ix2.h.p) {
		t.Fatalf("params diverge: %+v vs %+v", ix.h.p, ix2.h.p)
	}
	if !reflect.DeepEqual(ix.descs, ix2.descs) {
		t.Fatal("descriptors diverge after round trip")
	}
	if !reflect.DeepEqual(tableDump(ix), tableDump(ix2)) {
		t.Fatal("bucket tables diverge after round trip")
	}

	// Queries must be bit-identical: same candidates, same order.
	opt := QueryOptions{MaxCandidates: 8, MultiProbe: true}
	for i := 0; i < 100; i++ {
		q := descs[rng.Intn(len(descs))]
		if rng.Intn(2) == 0 { // perturb to exercise near-miss paths
			q = append([]byte(nil), q...)
			q[rng.Intn(len(q))] ^= 0x0f
		}
		a, err := ix.Query(q, opt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ix2.Query(q, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("query %d diverges: %v vs %v", i, a, b)
		}
	}
}

// TestWriteToBytesPinned pins the VPLSH1 bytes of a fixed lineage — its
// newest handle and an older one — so the in-memory layout can change
// without changing a snapshot byte.
func TestWriteToBytesPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	descs := make([][]byte, 400)
	for i := range descs {
		if i%4 == 3 { // near-duplicates, so buckets hold several ids
			descs[i] = perturb(rng, descs[i-1], 2)
		} else {
			descs[i] = randDesc(rng)
		}
	}
	ix, err := NewIndex(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var handles []*Index
	for _, k := range []int{1, 90, 0, 150, 159} {
		if ix, err = ix.Extend(descs[ix.Len() : ix.Len()+k]); err != nil {
			t.Fatal(err)
		}
		handles = append(handles, ix)
	}
	for _, c := range []struct {
		ix   *Index
		want string
	}{
		{handles[1], "ab1f1cfb910aae929b68d19ce626599d17ee57d05b5bbb6f15365d79519763e1"},
		{handles[4], "89472c3702838ac2a172811aa0b5db73ed37d9c8cf1ad192362b2a173bd4d35f"},
	} {
		var buf bytes.Buffer
		if _, err := c.ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("handle of %d descriptors: WriteTo digest %s, want %s", c.ix.Len(), got, c.want)
		}
	}
}

// tableDump copies the buckets a handle sees into plain maps, for equality
// checks.
func tableDump(ix *Index) []map[uint64][]int32 {
	out := make([]map[uint64][]int32, len(ix.t.maps))
	for t := range ix.t.maps {
		out[t] = map[uint64][]int32{}
		ix.eachBucket(t, func(key uint64, ids []int32) { out[t][key] = slices.Clone(ids) })
	}
	return out
}

func TestReadIndexRejectsGarbage(t *testing.T) {
	p := DefaultParams()
	if _, err := ReadIndex(bytes.NewReader([]byte("not an index at all")), p); err == nil {
		t.Fatal("garbage accepted")
	}
	// Truncated stream: valid magic then EOF.
	if _, err := ReadIndex(bytes.NewReader([]byte(indexMagic)), p); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

// TestReadIndexRejectsBadStreams: a stream of other parameters is refused
// before anything is built, and bucket ids a bounded query could not trust —
// past the descriptor count, negative, repeated or decreasing — are refused
// instead of panicking the first query that probes them.
func TestReadIndexRejectsBadStreams(t *testing.T) {
	p := fuzzParams()
	good := fuzzSeed(t, p, 3)
	if _, err := ReadIndex(bytes.NewReader(good), p); err != nil {
		t.Fatal(err)
	}
	other := p
	other.Seed++
	if _, err := ReadIndex(bytes.NewReader(good), other); err == nil {
		t.Fatal("index of other params accepted")
	}
	// The first bucket of table 0 sits after the header, the descriptors
	// and the table's bucket count; its key, then its size, then its ids.
	first := len(indexMagic) + 4 + 4 + 8 + 4 + 8 + 8 + 3*p.Dim + 8
	ids := first + 8 + 4
	if n := binary.LittleEndian.Uint32(good[first+8:]); n != 1 {
		t.Fatalf("fixture's first bucket holds %d ids, want 1", n)
	}
	for name, id := range map[string]int32{"past count": 3, "negative": -1} {
		bad := slices.Clone(good)
		binary.LittleEndian.PutUint32(bad[ids:], uint32(id))
		if _, err := ReadIndex(bytes.NewReader(bad), p); err == nil {
			t.Errorf("bucket id %s accepted", name)
		}
	}
	// A two-id bucket listed in decreasing order.
	bad := slices.Clone(good[:ids])
	binary.LittleEndian.PutUint32(bad[first+8:], 2)
	bad = binary.LittleEndian.AppendUint32(bad, 1)
	bad = binary.LittleEndian.AppendUint32(bad, 0)
	if _, err := ReadIndex(bytes.NewReader(bad), p); err == nil {
		t.Error("decreasing bucket ids accepted")
	}
}

// fuzzParams is a small family so fuzzed streams stay short.
func fuzzParams() Params { return Params{L: 3, M: 4, W: 400, Dim: 16, Seed: 9} }

// fuzzSeed serializes an index of n random descriptors under p.
func fuzzSeed(t testing.TB, p Params, n int) []byte {
	ix, err := NewIndex(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(n)))
	for range n {
		d := make([]byte, p.Dim)
		rng.Read(d)
		if _, err := ix.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadIndex: the snapshot decoder, fed primary-shipped bytes on a replica,
// must never panic, must allocate no more than a small multiple of its input
// beyond the fixed projection family, and whatever it accepts must survive a
// WriteTo→ReadIndex round trip answering every query identically.
func FuzzReadIndex(f *testing.F) {
	p := fuzzParams()
	for _, n := range []int{0, 1, 5, 40} {
		f.Add(fuzzSeed(f, p, n))
	}
	// A header claiming 2^31-1 descriptors over a five-descriptor body: the
	// arena must grow only with the bytes that arrive.
	hostile := fuzzSeed(f, p, 5)
	binary.LittleEndian.PutUint64(hostile[len(indexMagic)+4+4+8+4+8:], 1<<31-1)
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix, err := ReadIndex(bytes.NewReader(data), p)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		ix2, err := ReadIndex(&buf, p)
		if err != nil {
			t.Fatalf("re-reading an accepted index: %v", err)
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		queries := [][]byte{make([]byte, p.Dim)}
		rng.Read(queries[0])
		for id := range min(4, ix.Len()) {
			queries = append(queries, ix.desc(int32(id)))
		}
		for _, q := range queries {
			for _, opt := range []QueryOptions{{MultiProbe: true}, {MultiProbe: true, MaxCandidates: 2}} {
				a, err := ix.Query(q, opt)
				if err != nil {
					t.Fatal(err)
				}
				b, err := ix2.Query(q, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(a, b) {
					t.Fatalf("round trip changed a query: %v vs %v", a, b)
				}
			}
		}
	})
}
