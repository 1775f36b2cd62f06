package odelta

import (
	"bytes"
	"math/rand"
	"testing"

	"visualprint/internal/core"
)

// oracleBytes serializes an oracle for byte-equality comparison.
func oracleBytes(t *testing.T, o *core.Oracle) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := o.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func randDesc(rng *rand.Rand, dim int) []byte {
	d := make([]byte, dim)
	for i := range d {
		d[i] = byte(rng.Intn(256))
	}
	return d
}

// smallParams shrinks the test oracle so the property test's many
// serializations stay fast.
func smallParams() core.Params {
	p := core.TestParams()
	p.CountersPerTable = 1 << 12
	p.VerifyBits = 1 << 14
	return p
}

// TestDeltaChainByteEqual is the acceptance property: over randomized
// ingest sequences, applying the per-epoch delta chain reconstructs the
// oracle byte-equal to a full serialization at EVERY epoch.
func TestDeltaChainByteEqual(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		p := smallParams()
		if seed == 42 {
			p.VerifyBits = 0 // exercise the nil-verify layout too
		}
		server, err := core.New(p)
		if err != nil {
			t.Fatal(err)
		}
		client, err := core.New(p)
		if err != nil {
			t.Fatal(err)
		}
		dim := p.LSH.Dim
		epochs := 8
		for e := 1; e <= epochs; e++ {
			prev := server.Clone()
			batch := 1 + rng.Intn(20)
			for i := 0; i < batch; i++ {
				if err := server.Insert(randDesc(rng, dim)); err != nil {
					t.Fatal(err)
				}
			}
			rec, err := Diff(prev, server, uint64(e-1), uint64(e), DefaultFullRatio)
			if err != nil {
				t.Fatal(err)
			}
			if rec.FromInserts != prev.Inserts() || rec.ToInserts != server.Inserts() {
				t.Fatalf("seed %d epoch %d: record inserts %d->%d, want %d->%d",
					seed, e, rec.FromInserts, rec.ToInserts, prev.Inserts(), server.Inserts())
			}
			client, err = Apply(client, rec)
			if err != nil {
				t.Fatalf("seed %d epoch %d: apply: %v", seed, e, err)
			}
			got, want := oracleBytes(t, client), oracleBytes(t, server)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d: reconstructed oracle differs from server at epoch %d (%d vs %d bytes)",
					seed, e, len(got), len(want))
			}
		}
	}
}

// TestDeltaChainMultiStep applies a chain of several records in one
// ApplyChain call and checks byte-equality of the end state, plus the
// chain wire round trip.
func TestDeltaChainMultiStep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := smallParams()
	server, err := core.New(p)
	if err != nil {
		t.Fatal(err)
	}
	client := server.Clone()
	var recs []*Record
	for e := 1; e <= 5; e++ {
		prev := server.Clone()
		for i := 0; i < 5+rng.Intn(10); i++ {
			if err := server.Insert(randDesc(rng, p.LSH.Dim)); err != nil {
				t.Fatal(err)
			}
		}
		rec, err := Diff(prev, server, uint64(e-1), uint64(e), DefaultFullRatio)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	decoded, err := DecodeChain(EncodeChain(recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(recs) {
		t.Fatalf("chain round trip: %d records, want %d", len(decoded), len(recs))
	}
	for i := range recs {
		if decoded[i].FromEpoch != recs[i].FromEpoch || decoded[i].Full != recs[i].Full ||
			!bytes.Equal(decoded[i].Payload, recs[i].Payload) {
			t.Fatalf("chain round trip: record %d differs", i)
		}
	}
	client, err = ApplyChain(client, decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oracleBytes(t, client), oracleBytes(t, server)) {
		t.Fatal("chained reconstruction differs from server oracle")
	}
}

// TestFullFallback forces the ratio cutoff: a huge batch on a tiny oracle
// must come back as a Full record, and applying it must still be
// byte-equal.
func TestFullFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := smallParams()
	p.CountersPerTable = 1 << 8 // tiny tables: a big batch touches most cells
	server, err := core.New(p)
	if err != nil {
		t.Fatal(err)
	}
	prev := server.Clone()
	for i := 0; i < 500; i++ {
		if err := server.Insert(randDesc(rng, p.LSH.Dim)); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := Diff(prev, server, 0, 1, DefaultFullRatio)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Full {
		t.Fatal("dense batch should fall back to a Full record")
	}
	got, err := Apply(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oracleBytes(t, got), oracleBytes(t, server)) {
		t.Fatal("full record did not reconstruct byte-equal oracle")
	}
}

// TestApplyRejectsWrongBase: a sparse delta against a mismatched base must
// be refused, not silently corrupt the client oracle.
func TestApplyRejectsWrongBase(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := smallParams()
	server, err := core.New(p)
	if err != nil {
		t.Fatal(err)
	}
	prev := server.Clone()
	for i := 0; i < 4; i++ {
		if err := server.Insert(randDesc(rng, p.LSH.Dim)); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := Diff(prev, server, 0, 1, DefaultFullRatio)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := core.New(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := stale.Insert(randDesc(rng, p.LSH.Dim)); err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(stale, rec); err == nil {
		t.Fatal("apply against wrong base should fail")
	}
}
