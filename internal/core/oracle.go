// Package core implements VisualPrint's primary contribution: the
// locality-sensitive Bloom filter uniqueness "oracle" (paper section 3,
// Figure 8). The oracle is a compact, probabilistic summary of every
// keypoint the cloud has ever seen. A client downloads it once (tens of MB
// summarizing GBs of visual data), then tests each captured keypoint in
// constant time to estimate how often that feature occurs globally. Only the
// most unique keypoints — those that stand a chance of a unique match — are
// uploaded, cutting offload bandwidth by an order of magnitude.
//
// Construction (top of Figure 8): a 128-d SIFT descriptor is E2LSH-hashed
// into L buckets of M quantized Gaussian projections each; each bucket
// coordinate is Murmur3-hashed into K indices of a per-table counting Bloom
// filter (10-bit counters saturating at 1024); the touched counter positions
// are additionally hashed into a verification Bloom filter.
//
// Lookup (bottom of Figure 8): the exact bucket is probed first; multi-probe
// recovers off-by-one quantization false negatives (adjacent buckets and
// K-1-of-K partial counter matches); the verification filter suppresses the
// false positives that multi-probing would otherwise add.
package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"visualprint/internal/bloom"
	"visualprint/internal/lsh"
	"visualprint/internal/sift"
)

// Params configures an Oracle.
type Params struct {
	// LSH is the E2LSH family (paper: L=10, M=7, W=500).
	LSH lsh.Params
	// K is the number of counting-Bloom probes per LSH bucket (paper: 8).
	K int
	// CountersPerTable sizes each of the L counting filters.
	CountersPerTable uint64
	// CounterBits is the counter width (paper: 10, saturation 1024).
	CounterBits uint
	// VerifyBits sizes the verification Bloom filter; 0 disables
	// verification (used by the ablation benchmarks).
	VerifyBits uint64
	// VerifyK is the verification filter probe count.
	VerifyK int
	// MultiProbe enables adjacent-quantization-bucket probes and K-1-of-K
	// partial matches during lookup.
	MultiProbe bool
}

// DefaultParams returns the paper's configuration, sized for the paper's
// 2.5M-descriptor database: each of the L=10 tables gets 12.5M 10-bit
// counters (~15.6 MB, 156 MB total in RAM), plus a 256 Mbit verification
// filter (32 MB). Uncompressed this is close to the paper's reported 162 MB
// client RAM footprint; GZIP-compressed on disk it lands in the ~10 MB
// range while the filters remain sparse.
func DefaultParams() Params {
	return Params{
		LSH:              lsh.DefaultParams(),
		K:                8,
		CountersPerTable: 12_500_000,
		CounterBits:      10,
		VerifyBits:       1 << 28,
		VerifyK:          4,
		MultiProbe:       true,
	}
}

// TestParams returns a small configuration for unit tests and scaled
// experiments (capacity on the order of tens of thousands of descriptors).
func TestParams() Params {
	return Params{
		LSH:              lsh.DefaultParams(),
		K:                8,
		CountersPerTable: 1 << 17,
		CounterBits:      10,
		VerifyBits:       1 << 21,
		VerifyK:          4,
		MultiProbe:       true,
	}
}

// Validate reports whether p is usable.
func (p Params) Validate() error {
	if err := p.LSH.Validate(); err != nil {
		return err
	}
	if p.K <= 0 || p.CountersPerTable == 0 || p.CounterBits == 0 || p.CounterBits > 16 {
		return errors.New("core: K, CountersPerTable and CounterBits must be positive (bits <= 16)")
	}
	if p.VerifyBits != 0 && p.VerifyK <= 0 {
		return errors.New("core: VerifyK must be positive when verification is enabled")
	}
	return nil
}

// Oracle is the uniqueness oracle. Insert is called on the server as
// wardriven keypoints arrive ("new keypoint-to-location mappings can be
// incorporated continuously, in constant time and memory"); Uniqueness and
// SelectUnique run on the client against a downloaded copy.
//
// Oracle is not safe for concurrent mutation; concurrent read-only queries
// are safe.
type Oracle struct {
	p       Params
	hasher  *lsh.Hasher
	primary []*bloom.Counting
	verify  *bloom.Filter // nil when verification is disabled
	inserts uint64

	// scratch recycles per-call buffers (widened descriptor, bucket
	// coordinates, serialized keys, Bloom positions, per-table estimates)
	// so Insert and Uniqueness are allocation-free in steady state — the
	// client-side filtering cost Figure 16 benchmarks. Never serialized;
	// the zero value is ready to use.
	scratch sync.Pool
}

// oracleScratch is one call's worth of reusable buffers.
type oracleScratch struct {
	vec    []float32 // widened descriptor (converted once per call)
	coords []int32   // one table's bucket coordinate (mutated for probes)
	key    []byte    // serialized bucket coordinate
	pos    []uint64  // counting-filter positions (K entries)
	vkey   []byte    // verification filter key: positions + table tag
	ests   []uint32  // per-table estimates for the median
}

// getScratch returns a scratch sized for this oracle's parameters.
func (o *Oracle) getScratch() *oracleScratch {
	s, _ := o.scratch.Get().(*oracleScratch)
	if s == nil {
		s = &oracleScratch{
			vec:    make([]float32, 0, o.p.LSH.Dim),
			coords: make([]int32, o.p.LSH.M),
			key:    make([]byte, 0, 4*o.p.LSH.M),
			pos:    make([]uint64, o.p.K),
			vkey:   make([]byte, 0, 8*o.p.K+1),
			ests:   make([]uint32, 0, o.p.LSH.L),
		}
	}
	return s
}

// Filter hash seeds: one per primary table, one for the verification filter.
const verifySeed = 0xbeef

func tableSeed(t int) uint32 { return uint32(t) + 0x5bd1 }

// New creates an empty oracle.
func New(p Params) (*Oracle, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	h, err := lsh.NewHasher(p.LSH)
	if err != nil {
		return nil, err
	}
	o := &Oracle{p: p, hasher: h}
	for t := 0; t < p.LSH.L; t++ {
		cf, err := bloom.NewCounting(p.CountersPerTable, p.CounterBits, p.K, tableSeed(t))
		if err != nil {
			return nil, err
		}
		o.primary = append(o.primary, cf)
	}
	if p.VerifyBits > 0 {
		v, err := bloom.NewFilter(p.VerifyBits, p.VerifyK, verifySeed)
		if err != nil {
			return nil, err
		}
		o.verify = v
	}
	return o, nil
}

// Params returns the oracle's configuration.
func (o *Oracle) Params() Params { return o.p }

// Inserts returns the number of descriptors inserted.
func (o *Oracle) Inserts() uint64 { return o.inserts }

// NumTables returns the number of primary counting filters (LSH.L).
func (o *Oracle) NumTables() int { return len(o.primary) }

// Table returns primary counting filter t. Mutating it through the
// bloom-level cell writers is how odelta replays a sparse delta; all other
// callers must treat it as read-only.
func (o *Oracle) Table(t int) *bloom.Counting { return o.primary[t] }

// Verify returns the verification filter, nil when VerifyBits is 0.
func (o *Oracle) Verify() *bloom.Filter { return o.verify }

// SetInserts overwrites the oracle-level insert count; odelta replay sets
// it to the delta's recorded post-state so a reconstructed oracle
// serializes byte-identically to the original.
func (o *Oracle) SetInserts(n uint64) { o.inserts = n }

// bucketBytes serializes a bucket coordinate for Bloom hashing.
func bucketBytes(buf []byte, coords []int32) []byte {
	buf = buf[:0]
	var tmp [4]byte
	for _, c := range coords {
		binary.LittleEndian.PutUint32(tmp[:], uint32(c))
		buf = append(buf, tmp[:]...)
	}
	return buf
}

// Insert records one descriptor sighting in all L tables and the
// verification filter. Constant time and memory per call (allocation-free
// in steady state: the descriptor is widened once and all keys and filter
// positions go through pooled scratch buffers).
func (o *Oracle) Insert(desc []byte) error {
	if len(desc) != o.p.LSH.Dim {
		return errors.New("core: descriptor dimension mismatch")
	}
	s := o.getScratch()
	defer o.scratch.Put(s)
	s.vec = lsh.DescriptorVec(desc, s.vec)
	for t := 0; t < o.p.LSH.L; t++ {
		o.hasher.BucketVecInto(s.vec, t, s.coords)
		s.key = bucketBytes(s.key, s.coords)
		cf := o.primary[t]
		cf.PositionsInto(s.key, s.pos)
		cf.AddAt(s.pos)
		if o.verify != nil {
			// Verification entry: hash of the concatenated counter
			// positions, tagged with the table index.
			s.vkey = bloom.AppendPositionsKey(s.vkey, s.pos)
			s.vkey = append(s.vkey, byte(t))
			o.verify.Add(s.vkey)
		}
	}
	o.inserts++
	return nil
}

// tableEstimate queries one table for the count of the bucket coordinate
// serialized in s.key. Returns 0 when the bucket fails the primary or
// verification checks.
func (o *Oracle) tableEstimate(t int, s *oracleScratch) uint32 {
	cf := o.primary[t]
	cf.PositionsInto(s.key, s.pos)
	count := cf.CountAt(s.pos)
	if count == 0 && o.p.MultiProbe {
		// K-1-of-K partial match: treat a single missing counter as a
		// potential false negative.
		count = cf.CountAtPartial(s.pos)
	}
	if count == 0 {
		return 0
	}
	if o.verify != nil {
		s.vkey = bloom.AppendPositionsKey(s.vkey, s.pos)
		s.vkey = append(s.vkey, byte(t))
		if !o.verify.Test(s.vkey) {
			// "A positive result is returned if and only if a positive
			// match is found in both the primary and verification Bloom
			// filters." Partial matches especially need this gate.
			return 0
		}
	}
	return count
}

// Uniqueness estimates how many times a descriptor (or a near-identical
// one) has been inserted, 0 meaning never seen. The per-table count-min
// estimates are combined with a median across the L tables, which is robust
// both to quantization misses (tables that report 0) and to hotspot
// overcounts.
func (o *Oracle) Uniqueness(desc []byte) (uint32, error) {
	if len(desc) != o.p.LSH.Dim {
		return 0, errors.New("core: descriptor dimension mismatch")
	}
	s := o.getScratch()
	defer o.scratch.Put(s)
	s.vec = lsh.DescriptorVec(desc, s.vec)
	s.ests = s.ests[:0]
	for t := 0; t < o.p.LSH.L; t++ {
		o.hasher.BucketVecInto(s.vec, t, s.coords)
		s.key = bucketBytes(s.key, s.coords)
		est := o.tableEstimate(t, s)
		if est == 0 && o.p.MultiProbe {
			// Adjacent-quantization-bucket probes (multi-probe LSH): check
			// the 2M off-by-one buckets, accept the first verified
			// positive. The perturbations are enumerated by mutating one
			// coordinate at a time — same order as lsh.Probes, without the
			// per-probe allocations.
		probeLoop:
			for m := range s.coords {
				orig := s.coords[m]
				for _, d := range [2]int32{-1, 1} {
					s.coords[m] = orig + d
					s.key = bucketBytes(s.key, s.coords)
					if e := o.tableEstimate(t, s); e > 0 {
						est = e
						s.coords[m] = orig
						break probeLoop
					}
				}
				s.coords[m] = orig
			}
		}
		s.ests = append(s.ests, est)
	}
	slices.Sort(s.ests)
	return s.ests[len(s.ests)/2], nil
}

// Ranked pairs a keypoint index with its uniqueness estimate.
type Ranked struct {
	Index      int
	Uniqueness uint32
}

// selectionKey orders keypoints for upload by expected matching value:
// globally-rare-but-present features first (ascending count), then features
// the oracle has never seen (count 0 — a keypoint unknown to the map cannot
// yield a match, so spending upload budget on it is wasted), and saturated
// features (certainly common) last. The paper ranks purely by count; the
// zero-count demotion is a refinement that matters under strong viewpoint
// change, where many client keypoints are view-specific artifacts absent
// from the wardriven map.
func (o *Oracle) selectionKey(count uint32) uint32 {
	sat := uint32(1)<<o.p.CounterBits - 1
	switch {
	case count == 0:
		return sat // after every present feature, before saturated ones
	case count >= sat:
		return sat + 1
	default:
		return count
	}
}

// Rank scores every descriptor and returns indices ordered most-unique
// first (ascending estimated global count).
func (o *Oracle) Rank(descs [][]byte) ([]Ranked, error) {
	out := make([]Ranked, len(descs))
	for i, d := range descs {
		u, err := o.Uniqueness(d)
		if err != nil {
			return nil, err
		}
		out[i] = Ranked{Index: i, Uniqueness: u}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return o.selectionKey(out[i].Uniqueness) < o.selectionKey(out[j].Uniqueness)
	})
	return out, nil
}

// SelectUnique returns the n most-unique keypoints (lowest estimated global
// count, response as tie-break), the client-side filtering step that turns
// ~3,500 extracted keypoints into a 200-keypoint fingerprint.
func (o *Oracle) SelectUnique(kps []sift.Keypoint, n int) ([]sift.Keypoint, error) {
	type scored struct {
		kp *sift.Keypoint
		u  uint32
	}
	ss := make([]scored, len(kps))
	for i := range kps {
		u, err := o.Uniqueness(kps[i].Desc[:])
		if err != nil {
			return nil, err
		}
		ss[i] = scored{kp: &kps[i], u: u}
	}
	sort.SliceStable(ss, func(i, j int) bool {
		ki, kj := o.selectionKey(ss[i].u), o.selectionKey(ss[j].u)
		if ki != kj {
			return ki < kj
		}
		return ss[i].kp.Response > ss[j].kp.Response
	})
	if n > len(ss) {
		n = len(ss)
	}
	out := make([]sift.Keypoint, n)
	for i := 0; i < n; i++ {
		out[i] = *ss[i].kp
	}
	return out, nil
}

// MemoryBytes returns the uncompressed in-memory footprint of all filters —
// the client RAM number in Figure 15.
func (o *Oracle) MemoryBytes() int64 {
	var total int64
	for _, cf := range o.primary {
		total += cf.MemoryBytes()
	}
	if o.verify != nil {
		total += o.verify.MemoryBytes()
	}
	return total
}

const oracleMagic = "VPOR1\x00"

// WriteTo serializes the oracle (filters plus parameters). Compress with
// bloom.GzipBytes for the on-disk / download representation.
func (o *Oracle) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(oracleMagic); err != nil {
		return 0, err
	}
	hdr := []any{
		uint32(o.p.LSH.L), uint32(o.p.LSH.M), o.p.LSH.W, uint32(o.p.LSH.Dim), o.p.LSH.Seed,
		uint32(o.p.K), o.p.CountersPerTable, uint32(o.p.CounterBits),
		o.p.VerifyBits, uint32(o.p.VerifyK), boolByte(o.p.MultiProbe), o.inserts,
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return 0, err
		}
	}
	for _, cf := range o.primary {
		if _, err := cf.WriteTo(bw); err != nil {
			return 0, err
		}
	}
	if o.verify != nil {
		if _, err := o.verify.WriteTo(bw); err != nil {
			return 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return 0, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Read deserializes an oracle written by WriteTo. The projection family is
// rebuilt deterministically from the serialized LSH seed, so a downloaded
// oracle hashes identically to the server's copy. The bytes come from
// whatever server (or primary) sent them, so the header is validated before
// anything is built — lsh.Params.Validate bounds the projection family — each
// filter is read straight into the oracle as its bytes arrive, and a filter
// disagreeing with the header is refused.
func Read(r io.Reader) (*Oracle, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(oracleMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != oracleMagic {
		return nil, fmt.Errorf("core: bad oracle magic %q", magic)
	}
	var p Params
	var l, m, dim, k, cbits, vk uint32
	var mp byte
	var inserts uint64
	fields := []any{
		&l, &m, &p.LSH.W, &dim, &p.LSH.Seed,
		&k, &p.CountersPerTable, &cbits,
		&p.VerifyBits, &vk, &mp, &inserts,
	}
	for _, v := range fields {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return nil, err
		}
	}
	p.LSH.L, p.LSH.M, p.LSH.Dim = int(l), int(m), int(dim)
	p.K, p.CounterBits, p.VerifyK = int(k), uint(cbits), int(vk)
	if mp > 1 {
		return nil, errors.New("core: corrupt oracle header")
	}
	p.MultiProbe = mp == 1
	if err := p.Validate(); err != nil {
		return nil, err
	}
	h, err := lsh.NewHasher(p.LSH)
	if err != nil {
		return nil, err
	}
	o := &Oracle{p: p, hasher: h, inserts: inserts}
	for t := 0; t < p.LSH.L; t++ {
		cf, err := bloom.ReadCounting(br)
		if err != nil {
			return nil, err
		}
		if n, bits, k, seed := cf.Shape(); n != p.CountersPerTable || bits != p.CounterBits || k != p.K || seed != tableSeed(t) {
			return nil, errors.New("core: counting filter disagrees with the oracle header")
		}
		o.primary = append(o.primary, cf)
	}
	if p.VerifyBits > 0 {
		v, err := bloom.ReadFilter(br)
		if err != nil {
			return nil, err
		}
		if m, k, seed := v.Shape(); m != p.VerifyBits || k != p.VerifyK || seed != verifySeed {
			return nil, errors.New("core: verification filter disagrees with the oracle header")
		}
		o.verify = v
	}
	return o, nil
}
