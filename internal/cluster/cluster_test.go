package cluster

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"visualprint/internal/mathx"
)

// indoor is the server's clustering: matches within 2 m of each other
// belong to the same viewed scene.
var indoor = Params{Eps: 2, MinPts: 3}

func blob(rng *rand.Rand, center mathx.Vec3, n int, spread float64) []mathx.Vec3 {
	pts := make([]mathx.Vec3, n)
	for i := range pts {
		pts[i] = center.Add(mathx.Vec3{
			X: rng.NormFloat64() * spread,
			Y: rng.NormFloat64() * spread,
			Z: rng.NormFloat64() * spread,
		})
	}
	return pts
}

func TestDBSCANValidation(t *testing.T) {
	if _, err := DBSCAN(nil, Params{Eps: 0, MinPts: 3}); err == nil {
		t.Error("zero eps accepted")
	}
	if _, err := DBSCAN(nil, Params{Eps: 1, MinPts: 0}); err == nil {
		t.Error("zero MinPts accepted")
	}
}

func TestDBSCANEmpty(t *testing.T) {
	cs, err := DBSCAN(nil, indoor)
	if err != nil || cs != nil {
		t.Errorf("empty input: %v, %v", cs, err)
	}
}

func TestDBSCANTwoBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := blob(rng, mathx.Vec3{}, 40, 0.3)
	b := blob(rng, mathx.Vec3{X: 20}, 25, 0.3)
	pts := append(append([]mathx.Vec3{}, a...), b...)
	cs, err := DBSCAN(pts, Params{Eps: 1.5, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("found %d clusters, want 2", len(cs))
	}
	if len(cs[0].Indices) < len(cs[1].Indices) {
		t.Error("clusters not sorted by size")
	}
	if len(cs[0].Indices) != 40 || len(cs[1].Indices) != 25 {
		t.Errorf("cluster sizes %d, %d", len(cs[0].Indices), len(cs[1].Indices))
	}
	// The largest cluster's members must all come from blob a (indices < 40).
	for _, i := range cs[0].Indices {
		if i >= 40 {
			t.Fatalf("blob b point %d in cluster a", i)
		}
	}
}

func TestDBSCANNoiseExcluded(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := blob(rng, mathx.Vec3{}, 30, 0.3)
	// Scattered singletons far apart: noise.
	for i := 0; i < 10; i++ {
		pts = append(pts, mathx.Vec3{X: 100 + float64(i)*50})
	}
	cs, err := DBSCAN(pts, Params{Eps: 1.5, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range cs {
		total += len(c.Indices)
	}
	if total != 30 {
		t.Errorf("%d points clustered, want 30 (noise excluded)", total)
	}
}

func TestDBSCANChainConnectivity(t *testing.T) {
	// A dense line of points should form ONE cluster via density
	// reachability even though the ends are far apart.
	var pts []mathx.Vec3
	for i := 0; i < 100; i++ {
		pts = append(pts, mathx.Vec3{X: float64(i) * 0.5})
	}
	cs, err := DBSCAN(pts, Params{Eps: 1.0, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || len(cs[0].Indices) != 100 {
		t.Errorf("chain split into %d clusters", len(cs))
	}
}

func TestDBSCANAllPointsLabeledOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := append(blob(rng, mathx.Vec3{}, 50, 0.5), blob(rng, mathx.Vec3{X: 30}, 50, 0.5)...)
	cs, err := DBSCAN(pts, Params{Eps: 2, MinPts: 4})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, c := range cs {
		for _, i := range c.Indices {
			if seen[i] {
				t.Fatalf("point %d in two clusters", i)
			}
			seen[i] = true
		}
	}
}

func TestLargest(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	big := blob(rng, mathx.Vec3{}, 60, 0.3)
	small := blob(rng, mathx.Vec3{X: 25}, 10, 0.3)
	pts := append(append([]mathx.Vec3{}, small...), big...)
	c, ok, err := Largest(pts, Params{Eps: 1.5, MinPts: 3})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if len(c.Indices) != 60 {
		t.Errorf("largest cluster size %d, want 60", len(c.Indices))
	}
	// All-noise input.
	if _, ok, _ := Largest([]mathx.Vec3{{X: 0}, {X: 100}}, Params{Eps: 1, MinPts: 3}); ok {
		t.Error("noise-only input reported a cluster")
	}
}

func TestCentroid(t *testing.T) {
	pts := []mathx.Vec3{{X: 0}, {X: 2}, {X: 4}}
	c := Cluster{Indices: []int{0, 1, 2}}
	if got := c.Centroid(pts); got.Dist(mathx.Vec3{X: 2}) > 1e-12 {
		t.Errorf("centroid = %v", got)
	}
	if got := (Cluster{}).Centroid(pts); got != (mathx.Vec3{}) {
		t.Errorf("empty centroid = %v", got)
	}
}

func TestDBSCANScenarioQueryFiltering(t *testing.T) {
	// The server-side use case: true matches cluster at the viewed scene;
	// false LSH matches scatter. Largest-cluster filtering keeps the truth.
	rng := rand.New(rand.NewSource(5))
	sceneMatches := blob(rng, mathx.Vec3{X: 12, Y: 1.5, Z: 3}, 35, 0.8)
	var falseMatches []mathx.Vec3
	for i := 0; i < 30; i++ {
		falseMatches = append(falseMatches, mathx.Vec3{
			X: rng.Float64() * 80, Y: rng.Float64() * 3, Z: rng.Float64() * 50,
		})
	}
	pts := append(append([]mathx.Vec3{}, sceneMatches...), falseMatches...)
	c, ok, err := Largest(pts, indoor)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	inScene := 0
	for _, i := range c.Indices {
		if i < 35 {
			inScene++
		}
	}
	if inScene < 30 {
		t.Errorf("largest cluster holds only %d/35 true matches", inScene)
	}
	if len(c.Indices)-inScene > 5 {
		t.Errorf("largest cluster polluted by %d false matches", len(c.Indices)-inScene)
	}
}

func BenchmarkDBSCAN1000(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	pts := append(blob(rng, mathx.Vec3{}, 500, 1), blob(rng, mathx.Vec3{X: 50}, 500, 1)...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DBSCAN(pts, indoor)
	}
}

// referenceDBSCAN is DBSCAN as it stood before its neighbour buffer and
// worklist were shared across the call: a fresh slice per neighbourhood
// query and a re-sliced queue per cluster. TestDBSCANMatchesReference holds
// the shared-scratch version to it.
func referenceDBSCAN(pts []mathx.Vec3, p Params) ([]Cluster, error) {
	if p.Eps <= 0 || p.MinPts <= 0 {
		return nil, errors.New("cluster: Eps and MinPts must be positive")
	}
	n := len(pts)
	if n == 0 {
		return nil, nil
	}
	// Hash grid with cell size eps.
	cells := make(map[[3]int32][]int, n)
	key := func(v mathx.Vec3) [3]int32 {
		return [3]int32{
			int32(math.Floor(v.X / p.Eps)),
			int32(math.Floor(v.Y / p.Eps)),
			int32(math.Floor(v.Z / p.Eps)),
		}
	}
	for i, pt := range pts {
		k := key(pt)
		cells[k] = append(cells[k], i)
	}
	eps2 := p.Eps * p.Eps
	neighbors := func(i int) []int {
		var out []int
		k := key(pts[i])
		for dx := int32(-1); dx <= 1; dx++ {
			for dy := int32(-1); dy <= 1; dy++ {
				for dz := int32(-1); dz <= 1; dz++ {
					for _, j := range cells[[3]int32{k[0] + dx, k[1] + dy, k[2] + dz}] {
						d := pts[i].Sub(pts[j])
						if d.Dot(d) <= eps2 {
							out = append(out, j)
						}
					}
				}
			}
		}
		return out
	}

	const (
		unvisited = 0
		noise     = -1
	)
	labels := make([]int, n) // 0 unvisited, -1 noise, >0 cluster id
	clusterID := 0
	var clusters []Cluster
	for i := 0; i < n; i++ {
		if labels[i] != unvisited {
			continue
		}
		nb := neighbors(i)
		if len(nb) < p.MinPts {
			labels[i] = noise
			continue
		}
		clusterID++
		var members []int
		labels[i] = clusterID
		members = append(members, i)
		// Expand the cluster with a worklist.
		queue := append([]int(nil), nb...)
		for len(queue) > 0 {
			j := queue[0]
			queue = queue[1:]
			if labels[j] == noise {
				labels[j] = clusterID // border point
				members = append(members, j)
				continue
			}
			if labels[j] != unvisited {
				continue
			}
			labels[j] = clusterID
			members = append(members, j)
			jn := neighbors(j)
			if len(jn) >= p.MinPts {
				queue = append(queue, jn...)
			}
		}
		clusters = append(clusters, Cluster{Indices: members})
	}
	// Sort by descending size (insertion-stable for ties).
	for i := 1; i < len(clusters); i++ {
		for j := i; j > 0 && len(clusters[j].Indices) > len(clusters[j-1].Indices); j-- {
			clusters[j], clusters[j-1] = clusters[j-1], clusters[j]
		}
	}
	return clusters, nil
}

// queryLikePoints is a server-shaped input: a scene's matches concentrated
// in one or two blobs plus false matches scattered over a venue.
func queryLikePoints(rng *rand.Rand, n int) []mathx.Vec3 {
	inScene := n * (40 + rng.Intn(50)) / 100
	pts := blob(rng, mathx.Vec3{X: 4 + rng.Float64()*8, Y: 1.5, Z: 3 + rng.Float64()*4}, inScene, 0.3+rng.Float64()*1.5)
	if rng.Intn(2) == 0 {
		pts = append(pts, blob(rng, mathx.Vec3{X: rng.Float64() * 16, Y: 1.5, Z: rng.Float64() * 10}, inScene/3, 0.8)...)
	}
	for len(pts) < n {
		pts = append(pts, mathx.Vec3{X: rng.Float64() * 16, Y: rng.Float64() * 3, Z: rng.Float64() * 10})
	}
	return pts[:n]
}

// TestDBSCANMatchesReference: the same clusters, member for member and in
// the same order, as the reference over random inputs and parameters.
func TestDBSCANMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 200; trial++ {
		pts := queryLikePoints(rng, 1+rng.Intn(300))
		p := Params{Eps: 0.2 + rng.Float64()*2.5, MinPts: 1 + rng.Intn(6)}
		got, err := DBSCAN(pts, p)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := referenceDBSCAN(pts, p)
		if !slices.EqualFunc(got, want, func(a, b Cluster) bool { return slices.Equal(a.Indices, b.Indices) }) {
			t.Fatalf("trial %d (%d points, %+v): %v, want %v", trial, len(pts), p, got, want)
		}
	}
}

// TestDBSCANAllocs bounds the allocations of one call on a 128-point query
// (16 when written): the grid's keys, sorted index and cell map, the
// labels, the three scratch buffers, the cluster list and each cluster's
// member list, with neither a neighbourhood query nor a worklist step
// allocating.
func TestDBSCANAllocs(t *testing.T) {
	pts := queryLikePoints(rand.New(rand.NewSource(7)), 128)
	got := testing.AllocsPerRun(20, func() { DBSCAN(pts, indoor) })
	ref := testing.AllocsPerRun(20, func() { referenceDBSCAN(pts, indoor) })
	t.Logf("allocations per call on 128 points: %.0f (reference %.0f)", got, ref)
	if got > 20 {
		t.Fatalf("DBSCAN allocates %.0f times on 128 points, want <= 20", got)
	}
}
