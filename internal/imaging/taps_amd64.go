package imaging

// addTaps adds tap i of kernel k, row(i)[x]*k[i], into every dst[x], taps
// in ascending order and four per sweep over dst, the last 1–3 singly.
// row(i) holds at least len(dst) pixels. The sweeps are SSE2 assembly
// (taps_amd64.s) taking four pixels per instruction, each lane with the
// float32 operations of addTapsGeneric in the same order, so the bits are
// the same. Each row is resliced to len(dst) before the kernel reads it, so
// a short row panics in Go instead of being read past its end.
func addTaps(dst, k []float32, row func(i int) []float32) {
	n := len(dst)
	i := 0
	for ; i+4 <= len(k); i += 4 {
		taps4(dst, row(i)[:n], row(i + 1)[:n], row(i + 2)[:n], row(i + 3)[:n], (*[4]float32)(k[i:i+4]))
	}
	for ; i < len(k); i++ {
		tap1(dst, row(i)[:n], k[i])
	}
}

// taps4 sets dst[x] = dst[x] + s0[x]*k[0] + s1[x]*k[1] + s2[x]*k[2] +
// s3[x]*k[3], left to right, for every x < len(dst).
//
//go:noescape
func taps4(dst, s0, s1, s2, s3 []float32, k *[4]float32)

// tap1 sets dst[x] = dst[x] + s[x]*k for every x < len(dst).
//
//go:noescape
func tap1(dst, s []float32, k float32)
