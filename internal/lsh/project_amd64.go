package lsh

// project is projectGeneric in SSE2 assembly (project_amd64.s): rows 0–3
// and 4–7 of the group in two 4-lane accumulators, vec[d] broadcast once
// per dimension, each lane a MULPS then an ADDPS per dimension in order,
// never fused, so every sum has the generic loop's bits. It reads len(blk)
// elements of vec; the caller reslices vec to that length first.
//
//go:noescape
func project(acc *[lanes]float32, blk [][lanes]float32, vec []float32)
