// Package cluster provides density-based spatial clustering of 3D points.
// The VisualPrint server uses it to filter query keypoint matches: from the
// |K|*n candidate 3D positions returned by the LSH lookup, "VisualPrint
// applies spatial clustering to filter down to only those 3D points in the
// largest cluster, discarding others" — false matches scatter across the
// venue while true matches concentrate around the scene the user is viewing.
//
// The algorithm is DBSCAN accelerated by a uniform grid with cell size eps,
// kept as a cell-sorted index, so neighborhood queries touch at most 27
// cells.
package cluster

import (
	"errors"
	"math"
	"slices"

	"visualprint/internal/mathx"
)

// Params configures DBSCAN.
type Params struct {
	// Eps is the neighborhood radius (meters).
	Eps float64
	// MinPts is the minimum neighborhood size (including the point
	// itself) for a point to be a core point.
	MinPts int
}

// Cluster is a set of input indices.
type Cluster struct {
	Indices []int
}

// Centroid returns the mean of the cluster's points.
func (c Cluster) Centroid(pts []mathx.Vec3) mathx.Vec3 {
	var s mathx.Vec3
	if len(c.Indices) == 0 {
		return s
	}
	for _, i := range c.Indices {
		s = s.Add(pts[i])
	}
	return s.Scale(1 / float64(len(c.Indices)))
}

// DBSCAN clusters pts and returns clusters sorted by descending size.
// Noise points (non-core, not reachable) belong to no cluster.
func DBSCAN(pts []mathx.Vec3, p Params) ([]Cluster, error) {
	if p.Eps <= 0 || p.MinPts <= 0 {
		return nil, errors.New("cluster: Eps and MinPts must be positive")
	}
	n := len(pts)
	if n == 0 {
		return nil, nil
	}
	// The grid, cell size eps: the point indices sorted by cell, stably,
	// so that a cell's members stay in ascending index order, and each
	// cell's range in that order.
	key := make([][3]int32, n)
	order := make([]int, n)
	for i, v := range pts {
		key[i] = [3]int32{int32(math.Floor(v.X / p.Eps)), int32(math.Floor(v.Y / p.Eps)), int32(math.Floor(v.Z / p.Eps))}
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return slices.Compare(key[a][:], key[b][:]) })
	cells := make(map[[3]int32][2]int, n)
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && key[order[hi]] == key[order[lo]] {
			hi++
		}
		cells[key[order[lo]]] = [2]int{lo, hi}
		lo = hi
	}
	eps2 := p.Eps * p.Eps
	// neighbors returns i's neighbourhood in one buffer shared by every
	// query of the call: each result is consumed before the next query, and
	// a neighbourhood never holds more than n points.
	nbuf := make([]int, 0, n)
	neighbors := func(i int) []int {
		out := nbuf[:0]
		k := key[i]
		for dx := int32(-1); dx <= 1; dx++ {
			for dy := int32(-1); dy <= 1; dy++ {
				for dz := int32(-1); dz <= 1; dz++ {
					r := cells[[3]int32{k[0] + dx, k[1] + dy, k[2] + dz}]
					for _, j := range order[r[0]:r[1]] {
						d := pts[i].Sub(pts[j])
						if d.Dot(d) <= eps2 {
							out = append(out, j)
						}
					}
				}
			}
		}
		nbuf = out
		return out
	}

	const (
		unvisited = 0
		noise     = -1
	)
	labels := make([]int, n) // 0 unvisited, -1 noise, >0 cluster id
	clusterID := 0
	var clusters []Cluster
	// The expansion worklist, reused by every cluster. A point joins the
	// cluster when it is first reached: a border point (noise so far) only
	// joins, an unvisited one also waits in queue[head:] to be expanded.
	// Members are listed in the order they are first reached, which is the
	// order a worklist of every neighbourhood would have visited them in,
	// and no point is queued twice, so the worklist never outgrows n.
	queue := make([]int, 0, n)
	members := make([]int, 0, n)
	reach := func(nb []int) {
		for _, j := range nb {
			switch labels[j] {
			case unvisited:
				queue = append(queue, j)
			case noise:
			default:
				continue
			}
			labels[j] = clusterID
			members = append(members, j)
		}
	}
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
		labels[i] = clusterID
		members = append(members[:0], i)
		// Expand the cluster breadth-first: queue[head:] is still to visit.
		queue = queue[:0]
		reach(nb)
		for head := 0; head < len(queue); head++ {
			if jn := neighbors(queue[head]); len(jn) >= p.MinPts {
				reach(jn)
			}
		}
		clusters = append(clusters, Cluster{Indices: slices.Clone(members)})
	}
	// Sort by descending size (insertion-stable for ties).
	for i := 1; i < len(clusters); i++ {
		for j := i; j > 0 && len(clusters[j].Indices) > len(clusters[j-1].Indices); j-- {
			clusters[j], clusters[j-1] = clusters[j-1], clusters[j]
		}
	}
	return clusters, nil
}

// Largest returns the largest cluster of pts, or ok=false if no cluster
// forms (all noise).
func Largest(pts []mathx.Vec3, p Params) (Cluster, bool, error) {
	cs, err := DBSCAN(pts, p)
	if err != nil {
		return Cluster{}, false, err
	}
	if len(cs) == 0 {
		return Cluster{}, false, nil
	}
	return cs[0], true, nil
}
