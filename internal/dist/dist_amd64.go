package dist

// sq and sqLimit are the SSE2 kernels of Sq and SqLimit (dist_amd64.s).
// They read len(a) bytes of each operand: the exported wrappers reslice b
// to len(a) first, so a short b panics in Go before any byte is read.

//go:noescape
func sq(a, b []byte) int

//go:noescape
func sqLimit(a, b []byte, limit int) int
