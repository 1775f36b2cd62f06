package server

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"visualprint/internal/core"
	"visualprint/internal/lsh"
	"visualprint/internal/mathx"
)

// snapshotFuzzConfig is a small engine configuration — a three-table LSH
// family, shared by the index and the oracle, and a tiny oracle — so a valid
// VPDB2 snapshot is a few kilobytes and fuzzed streams stay short.
func snapshotFuzzConfig() DatabaseConfig {
	cfg := DefaultDatabaseConfig()
	cfg.Oracle = core.Params{
		LSH: lsh.Params{L: 3, M: 4, W: 400, Dim: 128, Seed: 3},
		K:   4, CountersPerTable: 96, CounterBits: 10,
		VerifyBits: 200, VerifyK: 3, MultiProbe: true,
	}
	return cfg
}

// snapshotSeed serializes the default venue of an engine built from cfg
// holding n random mappings.
func snapshotSeed(t testing.TB, cfg DatabaseConfig, n int) []byte {
	r, err := NewRouter(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(n)))
	ms := make([]Mapping, n)
	for i := range ms {
		rng.Read(ms[i].Desc[:])
		ms[i].Pos = mathx.Vec3{X: rng.Float64() * 10, Y: rng.Float64() * 3, Z: rng.Float64() * 8}
	}
	if n > 0 {
		if _, err := r.Ingest(context.Background(), "", ms); err != nil {
			t.Fatal(err)
		}
	}
	db := r.Default()
	var buf bytes.Buffer
	if err := db.writeState(db.cur.Load(), &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzSnapshot feeds arbitrary bytes to the VPDB2 snapshot decoder
// (Database.loadState), which reads a shard's snapshot at recovery and, via
// ReplaceFromSnapshot, the blob a primary ships a replica. It must never
// panic, must allocate no more than a small multiple of its input beyond
// the two fixed projection families, and whatever it accepts must survive
// the snapshot writer: decoding what writeState makes of the view gives the
// same positions, sequence numbers, bounds and oracle byte for byte, and an
// index holding the same descriptors in the same order that answers every
// query alike. (The index's buckets are written in table-slot order, which
// depends on insertion order, so its bytes are not canonical.)
func FuzzSnapshot(f *testing.F) {
	cfg := snapshotFuzzConfig()
	for _, n := range []int{0, 1, 5, 30} {
		f.Add(snapshotSeed(f, cfg, n))
	}
	r, err := NewRouter(cfg, nil)
	if err != nil {
		f.Fatal(err)
	}
	db := r.Default()
	// The index stream is magic, header and descriptor count, the
	// descriptors, then one bucket count and its buckets per table; an
	// empty index is all of that but descriptors and buckets.
	var empty bytes.Buffer
	if _, err := db.cur.Load().index.WriteTo(&empty); err != nil {
		f.Fatal(err)
	}
	descsAt := len(dbSnapMagicSeq) + empty.Len() - 8*cfg.Oracle.LSH.L
	dim := cfg.Oracle.LSH.Dim
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err := db.loadState(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+4<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		write := func(v *dbView) (snapshot, afterIndex []byte) {
			var out, ix bytes.Buffer
			if err := db.writeState(v, &out); err != nil {
				t.Fatal(err)
			}
			if _, err := v.index.WriteTo(&ix); err != nil {
				t.Fatal(err)
			}
			return out.Bytes(), out.Bytes()[len(dbSnapMagicSeq)+ix.Len():]
		}
		out, tail := write(v)
		v2, err := db.loadState(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-reading an accepted snapshot: %v", err)
		}
		again, tail2 := write(v2)
		n := v.index.Len()
		if v2.index.Len() != n || !bytes.Equal(tail, tail2) {
			t.Fatalf("round trip changed the view: %d -> %d mappings, or positions, seqs, bounds or oracle", n, v2.index.Len())
		}
		descs := out[descsAt : descsAt+n*dim]
		if !bytes.Equal(descs, again[descsAt:descsAt+n*dim]) {
			t.Fatal("round trip changed the stored descriptors")
		}
		for i := 0; i < min(n, 8); i++ {
			q := descs[i*dim : (i+1)*dim]
			for _, opt := range []lsh.QueryOptions{{MultiProbe: true}, {MultiProbe: true, MaxCandidates: 2}} {
				a, err := v.index.Query(q, opt)
				if err != nil {
					t.Fatal(err)
				}
				b, err := v2.index.Query(q, opt)
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
