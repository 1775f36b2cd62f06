package bloom

// Coverage for the allocation-free helper forms (AddAt,
// AppendPositionsKey): they must be byte-for-byte equivalent to the
// allocating originals they shadow.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"visualprint/internal/testutil"
)

// TestAddAtMatchesAdd: inserting via PositionsInto+AddAt must leave the
// filter in exactly the state Add produces — counters, insert count and
// all subsequent count queries.
func TestAddAtMatchesAdd(t *testing.T) {
	a, err := NewCounting(1<<12, 10, 8, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewCounting(1<<12, 10, 8, 99)
	rng := rand.New(rand.NewSource(81))
	items := make([][]byte, 300)
	for i := range items {
		items[i] = make([]byte, 28)
		rng.Read(items[i])
	}
	pos := make([]uint64, a.K())
	for _, item := range items {
		reps := 1 + int(item[0])%3
		for r := 0; r < reps; r++ {
			wantPos := a.Add(item)
			b.PositionsInto(item, pos)
			for i := range pos {
				if pos[i] != wantPos[i] {
					t.Fatalf("PositionsInto[%d] = %d, Add returned %d", i, pos[i], wantPos[i])
				}
			}
			b.AddAt(pos)
		}
	}
	if a.Inserts() != b.Inserts() {
		t.Fatalf("insert counts diverged: %d vs %d", a.Inserts(), b.Inserts())
	}
	for i, item := range items {
		if ca, cb := a.Count(item), b.Count(item); ca != cb {
			t.Fatalf("item %d: Add-built count %d, AddAt-built count %d", i, ca, cb)
		}
	}
	for i := uint64(0); i < a.NumCounters(); i++ {
		if a.counterAt(i) != b.counterAt(i) {
			t.Fatalf("counter %d diverged: %d vs %d", i, a.counterAt(i), b.counterAt(i))
		}
	}
}

// TestAppendPositionsKeyMatchesPositionsKey: same bytes, reused capacity,
// truncate-on-entry semantics.
func TestAppendPositionsKeyMatchesPositionsKey(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	var buf []byte
	for trial := 0; trial < 50; trial++ {
		pos := make([]uint64, 1+rng.Intn(12))
		for i := range pos {
			pos[i] = rng.Uint64()
		}
		want := PositionsKey(pos)
		buf = AppendPositionsKey(buf, pos)
		if !bytes.Equal(buf, want) {
			t.Fatalf("trial %d: AppendPositionsKey %x != PositionsKey %x", trial, buf, want)
		}
	}
	// Truncation: a longer previous key must not leak into a shorter one.
	long := AppendPositionsKey(nil, []uint64{1, 2, 3, 4})
	short := AppendPositionsKey(long, []uint64{9})
	if !bytes.Equal(short, PositionsKey([]uint64{9})) {
		t.Fatalf("reused buffer leaked stale bytes: %x", short)
	}
}

// TestAddAtZeroAllocs: the hot insert form must not allocate.
func TestAddAtZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; see testutil.RaceEnabled")
	}
	c, err := NewCounting(1<<12, 10, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	item := []byte("steady-state item")
	pos := make([]uint64, c.K())
	var key []byte
	key = AppendPositionsKey(key, pos)
	allocs := testing.AllocsPerRun(100, func() {
		c.PositionsInto(item, pos)
		c.AddAt(pos)
		key = AppendPositionsKey(key, pos)
	})
	if allocs != 0 {
		t.Fatalf("hot insert path allocates %.1f objects/op, want 0", allocs)
	}
}

// TestAddAtSaturates: AddAt must respect the saturation ceiling like Add.
func TestAddAtSaturates(t *testing.T) {
	c, err := NewCounting(64, 4, 2, 3) // saturates at 15
	if err != nil {
		t.Fatal(err)
	}
	item := []byte("hot")
	pos := make([]uint64, c.K())
	c.PositionsInto(item, pos)
	for i := 0; i < 40; i++ {
		c.AddAt(pos)
	}
	if got := c.CountAt(pos); got != c.Saturation() {
		t.Fatalf("count after 40 AddAt = %d, want saturation %d", got, c.Saturation())
	}
	if c.Inserts() != 40 {
		t.Fatalf("inserts = %d, want 40", c.Inserts())
	}
}

func ExampleAppendPositionsKey() {
	key := AppendPositionsKey(nil, []uint64{0x0102030405060708})
	fmt.Printf("% x\n", key)
	// Output: 08 07 06 05 04 03 02 01
}
