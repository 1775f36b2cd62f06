// Package cluster provides density-based spatial clustering of 3D points.
// The VisualPrint server uses it to filter query keypoint matches: from the
// |K|*n candidate 3D positions returned by the LSH lookup, "VisualPrint
// applies spatial clustering to filter down to only those 3D points in the
// largest cluster, discarding others" — false matches scatter across the
// venue while true matches concentrate around the scene the user is viewing.
//
// The algorithm is DBSCAN accelerated by a uniform hash grid with cell size
// eps, so neighborhood queries touch at most 27 cells.
package cluster

import (
	"errors"
	"math"

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

// DefaultParams suits indoor scenes: matches within 2 m of each other
// belong to the same viewed scene.
func DefaultParams() Params {
	return Params{Eps: 2.0, MinPts: 3}
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
	// neighbors returns i's neighbourhood in one buffer shared by every
	// query of the call: each result is consumed before the next query.
	var nbuf []int
	neighbors := func(i int) []int {
		out := nbuf[:0]
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
	var queue []int // the expansion worklist, reused by every cluster
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
		// Expand the cluster breadth-first: queue[head:] is still to visit.
		queue = append(queue[:0], nb...)
		for head := 0; head < len(queue); head++ {
			j := queue[head]
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
