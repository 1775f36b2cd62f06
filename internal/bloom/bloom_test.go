package bloom

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewCountingValidation(t *testing.T) {
	bad := []struct {
		n    uint64
		bits uint
		k    int
	}{
		{0, 10, 8}, {100, 0, 8}, {100, 17, 8}, {100, 10, 0},
	}
	for i, c := range bad {
		if _, err := NewCounting(c.n, c.bits, c.k, 0); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestCountingAddCount(t *testing.T) {
	c, err := NewCounting(1<<14, 10, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	item := []byte("door knob")
	if got := c.Count(item); got != 0 {
		t.Errorf("fresh filter count = %d", got)
	}
	for i := 1; i <= 5; i++ {
		c.Add(item)
		if got := c.Count(item); got != uint32(i) {
			t.Errorf("after %d adds count = %d", i, got)
		}
	}
	if c.Inserts() != 5 {
		t.Errorf("Inserts = %d", c.Inserts())
	}
}

func TestCountingSaturation(t *testing.T) {
	c, _ := NewCounting(1<<12, 4, 4, 2) // saturates at 15
	item := []byte("x")
	for i := 0; i < 100; i++ {
		c.Add(item)
	}
	if got := c.Count(item); got != 15 {
		t.Errorf("saturated count = %d, want 15", got)
	}
	if c.Saturation() != 15 {
		t.Errorf("Saturation = %d", c.Saturation())
	}
}

func TestCountingTenBitSaturation(t *testing.T) {
	// The paper's configuration: 10-bit counters saturating at 1024
	// (max representable 1023).
	c, _ := NewCounting(1<<12, 10, 4, 3)
	if c.Saturation() != 1023 {
		t.Errorf("10-bit saturation = %d, want 1023", c.Saturation())
	}
}

func TestCountingNeverUndercounts(t *testing.T) {
	// Count-min property: for any item inserted m times (m < saturation),
	// Count(item) >= m.
	c, _ := NewCounting(1<<12, 10, 6, 4)
	rng := rand.New(rand.NewSource(5))
	counts := map[string]int{}
	for i := 0; i < 500; i++ {
		item := fmt.Sprintf("item-%d", rng.Intn(100))
		c.Add([]byte(item))
		counts[item]++
	}
	for item, m := range counts {
		if got := c.Count([]byte(item)); int(got) < m {
			t.Errorf("Count(%q) = %d < true %d", item, got, m)
		}
	}
}

func TestCountingPackedCounterIsolation(t *testing.T) {
	// Direct packed-storage check: setting one counter must not disturb
	// neighbors, including counters straddling 64-bit word boundaries.
	c, _ := NewCounting(200, 10, 1, 0)
	for i := uint64(0); i < 200; i++ {
		c.setCounterAt(i, uint32(i)%1024)
	}
	for i := uint64(0); i < 200; i++ {
		if got := c.counterAt(i); got != uint32(i)%1024 {
			t.Fatalf("counter %d = %d, want %d", i, got, i%1024)
		}
	}
}

func TestCountingFalsePositiveRate(t *testing.T) {
	// Sized at ~12 counters/item with k=8: FP rate should be well under 1%,
	// matching the paper's "up to 2.5M unique feature vectors with less
	// than 1% false positives" target (scaled down).
	n := uint64(120000)
	c, _ := NewCounting(n, 10, 8, 6)
	for i := 0; i < 10000; i++ {
		c.Add([]byte(fmt.Sprintf("present-%d", i)))
	}
	fp := 0
	trials := 20000
	for i := 0; i < trials; i++ {
		if c.Count([]byte(fmt.Sprintf("absent-%d", i))) > 0 {
			fp++
		}
	}
	if rate := float64(fp) / float64(trials); rate > 0.01 {
		t.Errorf("false positive rate %.4f > 1%%", rate)
	}
}

func TestCountAtPartial(t *testing.T) {
	c, _ := NewCounting(1<<12, 10, 4, 7)
	pos := []uint64{1, 2, 3, 4}
	c.setCounterAt(1, 5)
	c.setCounterAt(2, 6)
	c.setCounterAt(3, 7)
	// counter 4 stays 0: full min = 0, partial (drop one zero) = 5.
	if got := c.CountAt(pos); got != 0 {
		t.Errorf("CountAt = %d", got)
	}
	if got := c.CountAtPartial(pos); got != 5 {
		t.Errorf("CountAtPartial = %d, want 5", got)
	}
	// Two zeros: partial must also be 0.
	c.setCounterAt(1, 0)
	if got := c.CountAtPartial(pos); got != 0 {
		t.Errorf("CountAtPartial with two zeros = %d", got)
	}
}

func TestCountingFillRatio(t *testing.T) {
	c, _ := NewCounting(1024, 10, 4, 8)
	if c.FillRatio() != 0 {
		t.Errorf("fresh fill = %v", c.FillRatio())
	}
	c.Add([]byte("a"))
	if r := c.FillRatio(); r <= 0 || r > float64(c.K())/1024*2 {
		t.Errorf("fill after one add = %v", r)
	}
}

func TestCountingRoundTrip(t *testing.T) {
	c, _ := NewCounting(5000, 10, 8, 9)
	for i := 0; i < 300; i++ {
		c.Add([]byte(fmt.Sprintf("k%d", i%40)))
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := ReadCounting(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Inserts() != c.Inserts() || c2.NumCounters() != c.NumCounters() {
		t.Fatal("header fields lost")
	}
	for i := 0; i < 40; i++ {
		item := []byte(fmt.Sprintf("k%d", i))
		if c.Count(item) != c2.Count(item) {
			t.Fatalf("count mismatch after round trip for %q", item)
		}
	}
}

func TestReadCountingRejectsGarbage(t *testing.T) {
	if _, err := ReadCounting(bytes.NewReader([]byte("not a filter at all"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadCounting(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestFilterBasic(t *testing.T) {
	f, err := NewFilter(1<<16, 6, 10)
	if err != nil {
		t.Fatal(err)
	}
	f.Add([]byte("hello"))
	if !f.Test([]byte("hello")) {
		t.Error("no false negatives allowed")
	}
}

func TestFilterNoFalseNegatives(t *testing.T) {
	f, _ := NewFilter(1<<18, 6, 11)
	var items [][]byte
	for i := 0; i < 5000; i++ {
		items = append(items, []byte(fmt.Sprintf("item-%d", i)))
		f.Add(items[i])
	}
	for _, it := range items {
		if !f.Test(it) {
			t.Fatalf("false negative for %q", it)
		}
	}
}

func TestFilterFalsePositiveRate(t *testing.T) {
	f, _ := NewFilter(1<<17, 7, 12) // ~13 bits/item for 10k items
	for i := 0; i < 10000; i++ {
		f.Add([]byte(fmt.Sprintf("in-%d", i)))
	}
	fp := 0
	trials := 20000
	for i := 0; i < trials; i++ {
		if f.Test([]byte(fmt.Sprintf("out-%d", i))) {
			fp++
		}
	}
	if rate := float64(fp) / float64(trials); rate > 0.01 {
		t.Errorf("binary filter FP rate %.4f", rate)
	}
}

func TestFilterRoundTrip(t *testing.T) {
	f, _ := NewFilter(4096, 5, 13)
	f.Add([]byte("alpha"))
	f.Add([]byte("beta"))
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	f2, err := ReadFilter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !f2.Test([]byte("alpha")) || !f2.Test([]byte("beta")) {
		t.Error("membership lost in round trip")
	}
}

func TestGzipBytesCompressesSparseFilter(t *testing.T) {
	c, _ := NewCounting(1<<18, 10, 8, 14) // sparse: nothing inserted
	z, err := GzipBytes(c)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(z)) >= c.MemoryBytes()/10 {
		t.Errorf("sparse filter compressed to %d of %d bytes", len(z), c.MemoryBytes())
	}
	// And it must decompress back to a working filter.
	zr, err := gzip.NewReader(bytes.NewReader(z))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCounting(zr); err != nil {
		t.Fatal(err)
	}
}

func TestGzipCompressibilityDropsWithSaturation(t *testing.T) {
	// The paper notes compressibility reduces as the filter saturates.
	sparse, _ := NewCounting(1<<16, 10, 8, 15)
	dense, _ := NewCounting(1<<16, 10, 8, 15)
	for i := 0; i < 40000; i++ {
		dense.Add([]byte(fmt.Sprintf("i%d", i)))
	}
	zs, _ := GzipBytes(sparse)
	zd, _ := GzipBytes(dense)
	if len(zd) <= len(zs) {
		t.Errorf("dense filter (%d B) should compress worse than sparse (%d B)", len(zd), len(zs))
	}
}

func TestPositionsDeterministic(t *testing.T) {
	c, _ := NewCounting(1<<12, 10, 8, 16)
	f := func(item []byte) bool {
		a := c.Positions(item)
		b := c.Positions(item)
		for i := range a {
			if a[i] != b[i] || a[i] >= c.NumCounters() {
				return false
			}
		}
		return len(a) == c.K()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPositionsKeyDistinct(t *testing.T) {
	a := PositionsKey([]uint64{1, 2, 3})
	b := PositionsKey([]uint64{1, 2, 4})
	if bytes.Equal(a, b) {
		t.Error("distinct position sets produce equal keys")
	}
	if len(a) != 24 {
		t.Errorf("key length = %d", len(a))
	}
}

func BenchmarkCountingAdd(b *testing.B) {
	c, _ := NewCounting(1<<22, 10, 8, 1)
	item := make([]byte, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		item[0] = byte(i)
		c.Add(item)
	}
}

func BenchmarkCountingCount(b *testing.B) {
	c, _ := NewCounting(1<<22, 10, 8, 1)
	item := make([]byte, 128)
	pos := make([]uint64, c.K())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		item[0] = byte(i)
		c.PositionsInto(item, pos)
		c.CountAt(pos)
	}
}

func TestCountingWriteToByteCount(t *testing.T) {
	c, _ := NewCounting(1000, 10, 4, 17)
	var buf bytes.Buffer
	n, err := c.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
}

func TestFilterWriteToByteCount(t *testing.T) {
	f, _ := NewFilter(4096, 4, 18)
	var buf bytes.Buffer
	n, err := f.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
}
