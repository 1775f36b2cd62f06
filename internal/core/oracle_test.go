package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"visualprint/internal/lsh"
	"visualprint/internal/sift"
)

func randDesc(rng *rand.Rand) []byte {
	d := make([]byte, 128)
	for i := range d {
		d[i] = byte(rng.Intn(256))
	}
	return d
}

// siftLikeDesc produces a descriptor with SIFT-like statistics: sparse,
// non-negative, L2 norm near 512.
func siftLikeDesc(rng *rand.Rand) []byte {
	f := make([]float64, 128)
	var norm float64
	for i := range f {
		if rng.Float64() < 0.4 {
			f[i] = rng.ExpFloat64()
		}
		norm += f[i] * f[i]
	}
	d := make([]byte, 128)
	if norm == 0 {
		d[rng.Intn(128)] = 255
		return d
	}
	scale := 512 / sqrt(norm)
	for i := range d {
		v := f[i] * scale
		if v > 255 {
			v = 255
		}
		d[i] = byte(v)
	}
	return d
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func perturb(rng *rand.Rand, d []byte, amp int) []byte {
	out := append([]byte(nil), d...)
	for i := range out {
		v := int(out[i]) + rng.Intn(2*amp+1) - amp
		if v < 0 {
			v = 0
		} else if v > 255 {
			v = 255
		}
		out[i] = byte(v)
	}
	return out
}

func newTestOracle(t *testing.T) *Oracle {
	t.Helper()
	o, err := New(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params: %v", err)
	}
	if err := TestParams().Validate(); err != nil {
		t.Errorf("test params: %v", err)
	}
	p := TestParams()
	p.K = 0
	if err := p.Validate(); err == nil {
		t.Error("K=0 accepted")
	}
	p = TestParams()
	p.VerifyBits = 100
	p.VerifyK = 0
	if err := p.Validate(); err == nil {
		t.Error("VerifyK=0 with verification accepted")
	}
}

func TestUniquenessUnseenIsZero(t *testing.T) {
	o := newTestOracle(t)
	rng := rand.New(rand.NewSource(1))
	zero := 0
	for i := 0; i < 50; i++ {
		u, err := o.Uniqueness(siftLikeDesc(rng))
		if err != nil {
			t.Fatal(err)
		}
		if u == 0 {
			zero++
		}
	}
	if zero < 48 {
		t.Errorf("only %d/50 unseen descriptors report zero on an empty oracle", zero)
	}
}

func TestUniquenessCountsRepeats(t *testing.T) {
	o := newTestOracle(t)
	rng := rand.New(rand.NewSource(2))
	d := siftLikeDesc(rng)
	for i := 0; i < 20; i++ {
		if err := o.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	u, err := o.Uniqueness(d)
	if err != nil {
		t.Fatal(err)
	}
	if u < 20 {
		t.Errorf("Uniqueness = %d after 20 identical inserts (count-min must not undercount)", u)
	}
	if o.Inserts() != 20 {
		t.Errorf("Inserts = %d", o.Inserts())
	}
}

func TestUniquenessSeparatesCommonFromUnique(t *testing.T) {
	// The core claim: globally repeated features score much higher than
	// one-off features.
	o := newTestOracle(t)
	rng := rand.New(rand.NewSource(3))
	common := siftLikeDesc(rng)
	for i := 0; i < 200; i++ {
		o.Insert(common) // a "ceiling tile" seen everywhere
	}
	var uniques [][]byte
	for i := 0; i < 200; i++ {
		d := siftLikeDesc(rng) // "paintings", each seen once
		uniques = append(uniques, d)
		o.Insert(d)
	}
	uc, _ := o.Uniqueness(common)
	worse := 0
	for _, d := range uniques {
		uu, _ := o.Uniqueness(d)
		if uu >= uc {
			worse++
		}
	}
	if worse > 10 {
		t.Errorf("%d/200 unique features scored >= the 200x repeated feature (count %d)", worse, uc)
	}
}

func TestUniquenessNearDuplicateCollides(t *testing.T) {
	// A slightly perturbed view of an indexed feature should land in the
	// same LSH buckets (multiprobe helps) and report nonzero count.
	o := newTestOracle(t)
	rng := rand.New(rand.NewSource(4))
	hits := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		d := siftLikeDesc(rng)
		for j := 0; j < 3; j++ {
			o.Insert(d)
		}
		u, _ := o.Uniqueness(perturb(rng, d, 2))
		if u > 0 {
			hits++
		}
	}
	if hits < trials*6/10 {
		t.Errorf("near-duplicate recall %d/%d", hits, trials)
	}
}

func TestMultiprobeImprovesRecall(t *testing.T) {
	// Ablation: with multiprobe disabled, near-duplicate recall drops.
	pOn := TestParams()
	pOff := TestParams()
	pOff.MultiProbe = false
	on, _ := New(pOn)
	off, _ := New(pOff)
	rng := rand.New(rand.NewSource(5))
	recall := func(o *Oracle) int {
		r := rand.New(rand.NewSource(6))
		hits := 0
		for i := 0; i < 150; i++ {
			d := siftLikeDesc(r)
			o.Insert(d)
			o.Insert(d)
			u, _ := o.Uniqueness(perturb(r, d, 3))
			if u > 0 {
				hits++
			}
		}
		return hits
	}
	_ = rng
	rOn, rOff := recall(on), recall(off)
	if rOn < rOff {
		t.Errorf("multiprobe recall %d < non-multiprobe %d", rOn, rOff)
	}
}

func TestSelectUniquePrefersRareFeatures(t *testing.T) {
	o := newTestOracle(t)
	rng := rand.New(rand.NewSource(7))
	// Index a "building": one repeated fixture descriptor, many unique ones.
	fixture := siftLikeDesc(rng)
	for i := 0; i < 300; i++ {
		o.Insert(fixture)
	}
	unique := make([][]byte, 50)
	for i := range unique {
		unique[i] = siftLikeDesc(rng)
		o.Insert(unique[i])
	}
	// Client frame: 10 fixture sightings + 10 unique sightings.
	var kps []sift.Keypoint
	for i := 0; i < 10; i++ {
		var kp sift.Keypoint
		copy(kp.Desc[:], fixture)
		kp.X = float64(i)
		kps = append(kps, kp)
	}
	for i := 0; i < 10; i++ {
		var kp sift.Keypoint
		copy(kp.Desc[:], unique[i])
		kp.X = 100 + float64(i)
		kps = append(kps, kp)
	}
	sel, err := o.SelectUnique(kps, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 10 {
		t.Fatalf("selected %d", len(sel))
	}
	fixtureChosen := 0
	for _, kp := range sel {
		if kp.X < 50 {
			fixtureChosen++
		}
	}
	if fixtureChosen > 2 {
		t.Errorf("%d/10 selected keypoints are the repeated fixture", fixtureChosen)
	}
}

func TestSelectUniqueCapsAtLen(t *testing.T) {
	o := newTestOracle(t)
	kps := make([]sift.Keypoint, 3)
	sel, err := o.SelectUnique(kps, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 3 {
		t.Errorf("len = %d, want 3", len(sel))
	}
}

func TestRankOrdering(t *testing.T) {
	o := newTestOracle(t)
	rng := rand.New(rand.NewSource(8))
	a := siftLikeDesc(rng) // inserted 50x
	b := siftLikeDesc(rng) // inserted once
	for i := 0; i < 50; i++ {
		o.Insert(a)
	}
	o.Insert(b)
	ranked, err := o.Rank([][]byte{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Index != 1 {
		t.Errorf("rarer descriptor should rank first: %+v", ranked)
	}
	if ranked[0].Uniqueness > ranked[1].Uniqueness {
		t.Error("rank output not ascending")
	}
}

func TestInsertDimensionMismatch(t *testing.T) {
	o := newTestOracle(t)
	if err := o.Insert(make([]byte, 64)); err == nil {
		t.Error("Insert accepted wrong dimension")
	}
	if _, err := o.Uniqueness(make([]byte, 64)); err == nil {
		t.Error("Uniqueness accepted wrong dimension")
	}
}

func TestOracleRoundTrip(t *testing.T) {
	o := newTestOracle(t)
	rng := rand.New(rand.NewSource(9))
	var descs [][]byte
	for i := 0; i < 100; i++ {
		d := siftLikeDesc(rng)
		descs = append(descs, d)
		for j := 0; j <= i%5; j++ {
			o.Insert(d)
		}
	}
	var buf bytes.Buffer
	if _, err := o.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	o2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if o2.Inserts() != o.Inserts() {
		t.Errorf("inserts %d != %d", o2.Inserts(), o.Inserts())
	}
	// The downloaded oracle must agree with the server copy on every query.
	for _, d := range descs {
		u1, _ := o.Uniqueness(d)
		u2, _ := o2.Uniqueness(d)
		if u1 != u2 {
			t.Fatalf("round-tripped oracle disagrees: %d vs %d", u1, u2)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("garbage everywhere"))); err == nil {
		t.Error("garbage accepted")
	}
}

// TestCloneIsDeep: a clone serializes byte-equal to its original, and
// inserting into one leaves the other untouched — the copy-on-write ingest
// inserts every batch into a clone of the published oracle.
func TestCloneIsDeep(t *testing.T) {
	o := newTestOracle(t)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		o.Insert(siftLikeDesc(rng))
	}
	before := oracleBytes(t, o)
	c := o.Clone()
	if !bytes.Equal(oracleBytes(t, c), before) {
		t.Fatal("clone serializes unlike its original")
	}
	for i := 0; i < 50; i++ {
		c.Insert(siftLikeDesc(rng))
	}
	if !bytes.Equal(oracleBytes(t, o), before) {
		t.Fatal("inserting into a clone changed the original")
	}
	if c.Inserts() != o.Inserts()+50 {
		t.Fatalf("clone counts %d inserts, original %d", c.Inserts(), o.Inserts())
	}
}

func oracleBytes(t testing.TB, o *Oracle) []byte {
	var buf bytes.Buffer
	if _, err := o.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzOracleParams is a small oracle so fuzzed blobs stay short.
func fuzzOracleParams() Params {
	return Params{
		LSH: lsh.Params{L: 3, M: 4, W: 400, Dim: 16, Seed: 3},
		K:   4, CountersPerTable: 96, CounterBits: 10,
		VerifyBits: 200, VerifyK: 3, MultiProbe: true,
	}
}

// TestReadRejectsFiltersUnlikeHeader: a filter whose shape disagrees with
// the oracle header — here more probes than the header's K, which would
// overrun the per-call position buffer on the first lookup — is refused.
func TestReadRejectsFiltersUnlikeHeader(t *testing.T) {
	p := fuzzOracleParams()
	o, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	blob := oracleBytes(t, o)
	if _, err := Read(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	// The header's K field follows magic, L, M, W, Dim and Seed.
	bad := bytes.Clone(blob)
	bad[len(oracleMagic)+4+4+8+4+8]--
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("counting filters with more probes than the header's K accepted")
	}
}

// FuzzOracleRead: the oracle decoder, fed whatever a dialed server or a
// primary sends, must never panic, must allocate no more than a small
// multiple of its input beyond the bounded projection family, and whatever
// it accepts must re-serialize to exactly the bytes it consumed.
func FuzzOracleRead(f *testing.F) {
	p := fuzzOracleParams()
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 3, 30} {
		o, err := New(p)
		if err != nil {
			f.Fatal(err)
		}
		for range n {
			o.Insert(randDescDim(rng, p.LSH.Dim))
		}
		f.Add(oracleBytes(f, o))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		o, err := Read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+2<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		out := oracleBytes(t, o)
		if len(out) > len(data) || !bytes.Equal(out, data[:len(out)]) {
			t.Fatalf("accepted oracle re-serializes unlike its %d input bytes", len(data))
		}
	})
}

func randDescDim(rng *rand.Rand, dim int) []byte {
	d := make([]byte, dim)
	rng.Read(d)
	return d
}

func TestMemoryBytesMatchesParams(t *testing.T) {
	p := TestParams()
	o, _ := New(p)
	want := int64(p.LSH.L)*int64((p.CountersPerTable*uint64(p.CounterBits)+63)/64*8) +
		int64((p.VerifyBits+63)/64*8)
	if got := o.MemoryBytes(); got != want {
		t.Errorf("MemoryBytes = %d, want %d", got, want)
	}
}

func TestVerificationReducesFalsePositives(t *testing.T) {
	// Ablation: with a heavily loaded primary filter, verification should
	// cut the rate of never-inserted descriptors reporting nonzero counts.
	mk := func(verify bool) float64 {
		p := TestParams()
		p.CountersPerTable = 1 << 12 // deliberately undersized -> hotspots
		if !verify {
			p.VerifyBits = 0
		}
		o, err := New(p)
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(10))
		for i := 0; i < 3000; i++ {
			o.Insert(siftLikeDesc(rng))
		}
		fp := 0
		const trials = 300
		for i := 0; i < trials; i++ {
			u, _ := o.Uniqueness(randDesc(rng))
			if u > 0 {
				fp++
			}
		}
		return float64(fp) / trials
	}
	with := mk(true)
	without := mk(false)
	if with > without {
		t.Errorf("verification increased FP rate: %.3f vs %.3f", with, without)
	}
}

func BenchmarkOracleInsert(b *testing.B) {
	o, _ := New(TestParams())
	rng := rand.New(rand.NewSource(1))
	d := siftLikeDesc(rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d[0] = byte(i)
		o.Insert(d)
	}
}

func BenchmarkOracleUniqueness(b *testing.B) {
	o, _ := New(TestParams())
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		o.Insert(siftLikeDesc(rng))
	}
	d := siftLikeDesc(rng)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Uniqueness(d)
	}
}

func TestConcurrentUniquenessQueries(t *testing.T) {
	o := newTestOracle(t)
	rng := rand.New(rand.NewSource(30))
	descs := make([][]byte, 50)
	for i := range descs {
		descs[i] = siftLikeDesc(rng)
		o.Insert(descs[i])
	}
	// Readers race each other (run with -race to verify the safety claim).
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < 200; i++ {
				if _, err := o.Uniqueness(descs[(w*7+i)%len(descs)]); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
