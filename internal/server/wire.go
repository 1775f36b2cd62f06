package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"visualprint/internal/mathx"
	"visualprint/internal/pose"
	"visualprint/internal/sift"
)

// Message types of the VisualPrint wire protocol (version 4, see DESIGN.md
// "Wire protocol"). A frame is [uint32 length][uint32 requestID][uint8
// type][payload]; the length covers everything after itself. Request IDs
// let one connection carry many in-flight requests; responses carry the ID
// of the request they answer. Numbers are stable: retired types leave gaps.
const (
	msgIngest        byte = 2 // mappings -> uint64 total count
	msgQuery         byte = 3 // intrinsics + keypoints -> locate result
	msgStats         byte = 4 // -> DBStats payload
	msgIngestAck     byte = 6
	msgQueryResult   byte = 7
	msgStatsResult   byte = 8
	msgGetMetrics    byte = 12 // -> JSON obs.Report (metrics, quantiles, slow log)
	msgMetricsResult byte = 13
	msgCancel        byte = 15 // frame ID names the request to cancel; no payload, no response

	// Replication & fleet control. All payloads are little-endian
	// fixed-width fields; addresses are length-unframed UTF-8 tails. See
	// DESIGN.md "Replication & failover".
	msgReplState          byte = 17 // -> role/epoch/applied offset/primary addr
	msgReplStateResult    byte = 18 // [u8 role][u64 epoch][u64 applied][u64 staleness ms][addr]
	msgReplSnapshot       byte = 19 // -> full-sync snapshot for a fresh replica
	msgReplSnapshotResult byte = 20 // [u64 seq][db-state blob]
	msgReplFetch          byte = 21 // [u64 fromSeq][u32 max][u32 waitMs][replica id] -> batch
	msgReplBatch          byte = 22 // [u64 firstSeq][u64 head][u32 n][n x (u32 len + record)]
	msgReplFollow         byte = 23 // [u64 epoch][primary addr] — demote/reconfigure
	msgReplPromote        byte = 24 // [u64 epoch] — become primary
	msgReplAck            byte = 25 // empty acknowledgement for follow/promote

	// Versioned oracle distribution. See DESIGN.md "Oracle distribution".
	msgOracleSync      byte = 31 // [u64 haveEpoch][u64 haveInserts] -> one of the three below
	msgOracleSyncFull  byte = 32 // [u64 epoch][gzip oracle blob]
	msgOracleSyncDelta byte = 33 // odelta.EncodeChain payload (self-describing epochs)
	msgOracleSyncNone  byte = 34 // [u64 epoch][u64 inserts] — client already current
	// 35 and 36 are retired: the version-3 oracle epoch subscription.

	msgError byte = 0x7f
)

// Request header. Every message type is <= msgError (0x7f), so bit 7 of a
// request's type byte is free: when set, the payload begins with one flags
// byte followed, in flag-bit order, by the options the flags name. A request
// without options is a bare frame, byte-identical to a headerless protocol.
//
//	bit 0  u32 relative deadline in milliseconds. Relative, not absolute,
//	       so client/server clock skew never expires a request in flight.
//	bit 1  u8 n + n venue-name bytes (validVenueName). Requests without it
//	       address the default venue.
//	bit 2  u64 session id, never 0 (0 is "no session").
//	bit 3  reserved for the request trace id.
//
// Unknown bits, truncation, an invalid name or a zero session id are typed
// errors answered to the request's own ID.
const (
	headerFlag byte = 0x80

	hdrDeadline byte = 1 << 0
	hdrVenue    byte = 1 << 1
	hdrSession  byte = 1 << 2
	hdrKnown         = hdrDeadline | hdrVenue | hdrSession
)

// reqHeader is the decoded request header; zero fields are absent options.
type reqHeader struct {
	deadline uint32 // relative, milliseconds
	venue    string
	sid      uint64
}

// size returns the header's encoded length: 0 for the empty header.
func (h reqHeader) size() int {
	if h == (reqHeader{}) {
		return 0
	}
	n := 1
	if h.deadline != 0 {
		n += 4
	}
	if h.venue != "" {
		n += 1 + len(h.venue)
	}
	if h.sid != 0 {
		n += 8
	}
	return n
}

// put encodes a non-empty header into buf[:h.size()].
func (h reqHeader) put(buf []byte) {
	off := 1
	if h.deadline != 0 {
		buf[0] |= hdrDeadline
		binary.LittleEndian.PutUint32(buf[off:], h.deadline)
		off += 4
	}
	if h.venue != "" {
		buf[0] |= hdrVenue
		buf[off] = byte(len(h.venue))
		off += 1 + copy(buf[off+1:], h.venue)
	}
	if h.sid != 0 {
		buf[0] |= hdrSession
		binary.LittleEndian.PutUint64(buf[off:], h.sid)
	}
}

// decodeReqHeader parses the header leading a flagged request's payload and
// returns the request payload behind it (aliasing p).
func decodeReqHeader(p []byte) (h reqHeader, rest []byte, err error) {
	if len(p) < 1 {
		return reqHeader{}, nil, errors.New("server: short request header")
	}
	flags, p := p[0], p[1:]
	if flags&^hdrKnown != 0 {
		return reqHeader{}, nil, fmt.Errorf("server: unknown request header flags %#02x", flags&^hdrKnown)
	}
	if flags&hdrDeadline != 0 {
		if len(p) < 4 {
			return reqHeader{}, nil, errors.New("server: truncated request header deadline")
		}
		h.deadline, p = binary.LittleEndian.Uint32(p), p[4:]
	}
	if flags&hdrVenue != 0 {
		if len(p) < 1 || len(p) < 1+int(p[0]) {
			return reqHeader{}, nil, errors.New("server: truncated request header venue")
		}
		h.venue, p = string(p[1:1+int(p[0])]), p[1+int(p[0]):]
		if !validVenueName(h.venue) {
			return reqHeader{}, nil, fmt.Errorf("server: invalid venue name %q", h.venue)
		}
	}
	if flags&hdrSession != 0 {
		if len(p) < 8 {
			return reqHeader{}, nil, errors.New("server: truncated request header session")
		}
		h.sid, p = binary.LittleEndian.Uint64(p), p[8:]
		if h.sid == 0 {
			return reqHeader{}, nil, errors.New("server: session id 0 is reserved")
		}
	}
	return h, p, nil
}

// deadlineWireMax caps the encodable relative deadline (~49.7 days); longer
// deadlines are clamped, which is indistinguishable from no deadline at
// request timescales.
const deadlineWireMax = ^uint32(0)

// maxVenueName caps the wire-encodable venue name (the header's length
// field is one byte).
const maxVenueName = 255

// validVenueName reports whether name can ride the request header and double
// as a directory name: non-empty, at most maxVenueName bytes, lowercase
// letters, digits, '-', '_' and '.' only, not starting with '.'. The empty
// string names the default venue and never appears on the wire.
func validVenueName(name string) bool {
	if name == "" || len(name) > maxVenueName || name[0] == '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return false
		}
	}
	return true
}

// Versioned oracle sync.
//
// msgOracleSync carries the version the client holds — the epoch stamped by
// the engine on every ingest batch plus the oracle insert count, both
// all-ones for "nothing yet" — and the server answers with the cheapest
// transfer that makes the client current: msgOracleSyncNone (already
// current, both coordinates matched), msgOracleSyncDelta (an odelta chain
// from the retained per-epoch ring), or msgOracleSyncFull (full blob, for
// clients outside the delta window). Every request, this one included, has
// exactly one answer; a client refreshes by syncing again at its own cadence.

// encodeOracleVersion packs a (epoch, inserts) version identity — the
// msgOracleSync request and msgOracleSyncNone payloads.
func encodeOracleVersion(epoch, inserts uint64) []byte {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf, epoch)
	binary.LittleEndian.PutUint64(buf[8:], inserts)
	return buf
}

// decodeOracleVersion parses an encodeOracleVersion payload.
func decodeOracleVersion(data []byte) (epoch, inserts uint64, err error) {
	if len(data) != 16 {
		return 0, 0, fmt.Errorf("server: bad oracle version payload size %d", len(data))
	}
	return binary.LittleEndian.Uint64(data), binary.LittleEndian.Uint64(data[8:]), nil
}

// encodeOracleSyncFull prefixes a gzip oracle blob with the epoch it
// represents.
func encodeOracleSyncFull(epoch uint64, blob []byte) []byte {
	buf := make([]byte, 8+len(blob))
	binary.LittleEndian.PutUint64(buf, epoch)
	copy(buf[8:], blob)
	return buf
}

// decodeOracleSyncFull parses an encodeOracleSyncFull payload.
func decodeOracleSyncFull(data []byte) (epoch uint64, blob []byte, err error) {
	if len(data) < 8 {
		return 0, nil, errors.New("server: short oracle sync payload")
	}
	return binary.LittleEndian.Uint64(data), data[8:], nil
}

// maxFrameSize bounds a single protocol frame (oracle blobs dominate).
const maxFrameSize = 1 << 30

// The preamble is the whole handshake: a client opens its connection with
// protoMagic (little-endian) followed by the version byte, and a server
// serves exactly protoVersion — anything else is refused with one id-0
// ErrProtocolVersion frame and a close. A wire change bumps the byte.
const (
	protoMagic   uint32 = 0xfe325056 // "VP2\xfe" when read little-endian
	protoVersion byte   = 4
)

// preambleSize is the on-wire size of the connection preamble.
const preambleSize = 5

// writePreamble announces the protocol version on a fresh connection.
func writePreamble(w io.Writer) error {
	var buf [preambleSize]byte
	binary.LittleEndian.PutUint32(buf[:4], protoMagic)
	buf[4] = protoVersion
	_, err := w.Write(buf[:])
	return err
}

// frameOverhead is the per-frame byte overhead (length prefix, request ID,
// type), used by the client byte counters and the upload-size model.
const frameOverhead = 9

// writeFrame writes one frame — [uint32 length][uint32 id][uint8 type]
// [header][payload] — and returns the bytes written. Header and payload are
// encoded straight into the one buffer the frame occupies and leave in a
// single Write: that avoids interleaving hazards and, critically, never
// issues a zero-length Write — net.Pipe (the in-process transport) treats a
// 0-byte write as a rendezvous that blocks until a reader arrives, which
// would deadlock empty-payload requests. Responses pass the empty header.
func writeFrame(w io.Writer, id uint32, typ byte, h reqHeader, payload []byte) (int, error) {
	hn := h.size()
	if hn+len(payload)+5 > maxFrameSize {
		return 0, errors.New("server: frame too large")
	}
	buf := make([]byte, frameOverhead+hn+len(payload))
	binary.LittleEndian.PutUint32(buf[:4], uint32(hn+len(payload)+5))
	binary.LittleEndian.PutUint32(buf[4:8], id)
	buf[8] = typ
	if hn > 0 {
		buf[8] |= headerFlag
		h.put(buf[frameOverhead:])
	}
	copy(buf[frameOverhead+hn:], payload)
	return w.Write(buf)
}

// frameReadChunk is the most readFrame allocates ahead of the bytes it has
// actually received, so a hostile length prefix cannot reserve memory the
// peer never sends. Frames up to this size (every query) are one allocation.
const frameReadChunk = 64 << 10

// readFrame reads one protocol frame. The type byte is returned as sent,
// headerFlag included.
func readFrame(r io.Reader) (id uint32, typ byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n < 5 || n > maxFrameSize {
		return 0, 0, nil, fmt.Errorf("server: bad frame length %d", n)
	}
	buf := make([]byte, min(n, frameReadChunk))
	for got := 0; ; {
		if _, err := io.ReadFull(r, buf[got:]); err != nil {
			return 0, 0, nil, err
		}
		if got = len(buf); got == n {
			break
		}
		buf = append(buf, make([]byte, min(n-got, got))...)
	}
	return binary.LittleEndian.Uint32(buf[:4]), buf[4], buf[5:], nil
}

const mappingWireSize = sift.DescriptorSize + 3*8

// encodeMappings serializes an ingest payload.
func encodeMappings(ms []Mapping) []byte {
	buf := make([]byte, 4+len(ms)*mappingWireSize)
	binary.LittleEndian.PutUint32(buf, uint32(len(ms)))
	off := 4
	for i := range ms {
		copy(buf[off:], ms[i].Desc[:])
		off += sift.DescriptorSize
		for _, f := range []float64{ms[i].Pos.X, ms[i].Pos.Y, ms[i].Pos.Z} {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(f))
			off += 8
		}
	}
	return buf
}

// decodeMappings parses an ingest payload.
func decodeMappings(data []byte) ([]Mapping, error) {
	if len(data) < 4 {
		return nil, errors.New("server: short ingest payload")
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if len(data) != n*mappingWireSize {
		return nil, fmt.Errorf("server: ingest payload %d bytes, want %d", len(data), n*mappingWireSize)
	}
	ms := make([]Mapping, n)
	off := 0
	for i := 0; i < n; i++ {
		copy(ms[i].Desc[:], data[off:off+sift.DescriptorSize])
		off += sift.DescriptorSize
		ms[i].Pos.X = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		ms[i].Pos.Y = math.Float64frombits(binary.LittleEndian.Uint64(data[off+8:]))
		ms[i].Pos.Z = math.Float64frombits(binary.LittleEndian.Uint64(data[off+16:]))
		off += 24
	}
	return ms, nil
}

// seqMappingWireSize is one shard-engine WAL record entry: the venue-global
// sequence number followed by the mapping.
const seqMappingWireSize = 8 + mappingWireSize

// encodeSeqMappings serializes a shard-engine ingest batch (WAL only — seq
// tags never ride the client wire; the Router assigns them server-side).
func encodeSeqMappings(ms []Mapping, seqs []uint64) []byte {
	buf := make([]byte, 4+len(ms)*seqMappingWireSize)
	binary.LittleEndian.PutUint32(buf, uint32(len(ms)))
	off := 4
	for i := range ms {
		binary.LittleEndian.PutUint64(buf[off:], seqs[i])
		off += 8
		copy(buf[off:], ms[i].Desc[:])
		off += sift.DescriptorSize
		for _, f := range []float64{ms[i].Pos.X, ms[i].Pos.Y, ms[i].Pos.Z} {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(f))
			off += 8
		}
	}
	return buf
}

// decodeSeqMappings parses a shard-engine WAL record.
func decodeSeqMappings(data []byte) ([]Mapping, []uint64, error) {
	if len(data) < 4 {
		return nil, nil, errors.New("server: short seq ingest payload")
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if len(data) != n*seqMappingWireSize {
		return nil, nil, fmt.Errorf("server: seq ingest payload %d bytes, want %d", len(data), n*seqMappingWireSize)
	}
	ms := make([]Mapping, n)
	seqs := make([]uint64, n)
	off := 0
	for i := 0; i < n; i++ {
		seqs[i] = binary.LittleEndian.Uint64(data[off:])
		off += 8
		copy(ms[i].Desc[:], data[off:off+sift.DescriptorSize])
		off += sift.DescriptorSize
		ms[i].Pos.X = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		ms[i].Pos.Y = math.Float64frombits(binary.LittleEndian.Uint64(data[off+8:]))
		ms[i].Pos.Z = math.Float64frombits(binary.LittleEndian.Uint64(data[off+16:]))
		off += 24
	}
	return ms, seqs, nil
}

const queryHeaderSize = 4 + 4 + 8 + 8

// encodeQuery serializes a localization query: intrinsics header followed
// by the keypoint wire format shared with internal/codec (which includes
// the 2D pixel coordinate of each keypoint — the "keypoint-plus-2D
// coordinate pairs" of the paper).
func encodeQuery(intr pose.Intrinsics, kpPayload []byte) []byte {
	buf := make([]byte, queryHeaderSize, queryHeaderSize+len(kpPayload))
	binary.LittleEndian.PutUint32(buf, uint32(intr.W))
	binary.LittleEndian.PutUint32(buf[4:], uint32(intr.H))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(intr.FovX))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(intr.FovY))
	return append(buf, kpPayload...)
}

// decodeQueryHeader parses the intrinsics header, returning the keypoint
// payload remainder.
func decodeQueryHeader(data []byte) (pose.Intrinsics, []byte, error) {
	if len(data) < queryHeaderSize {
		return pose.Intrinsics{}, nil, errors.New("server: short query payload")
	}
	intr := pose.Intrinsics{
		W:    int(binary.LittleEndian.Uint32(data)),
		H:    int(binary.LittleEndian.Uint32(data[4:])),
		FovX: math.Float64frombits(binary.LittleEndian.Uint64(data[8:])),
		FovY: math.Float64frombits(binary.LittleEndian.Uint64(data[16:])),
	}
	return intr, data[queryHeaderSize:], nil
}

// dbStatsWireSize is the msgStats response: six uint64/int64 fields plus
// the persistence flag.
const dbStatsWireSize = 6*8 + 1

// encodeDBStats serializes a stats response.
func encodeDBStats(s DBStats) []byte {
	buf := make([]byte, dbStatsWireSize)
	binary.LittleEndian.PutUint64(buf[0:], s.Mappings)
	binary.LittleEndian.PutUint64(buf[8:], s.DatabaseBytes)
	binary.LittleEndian.PutUint64(buf[16:], s.OracleInserts)
	binary.LittleEndian.PutUint64(buf[24:], s.SnapshotSeq)
	binary.LittleEndian.PutUint64(buf[32:], s.WALBytes)
	binary.LittleEndian.PutUint64(buf[40:], uint64(s.LastCompactionUnix))
	if s.Persistent {
		buf[48] = 1
	}
	return buf
}

// decodeDBStats parses a stats response.
func decodeDBStats(data []byte) (DBStats, error) {
	if len(data) != dbStatsWireSize {
		return DBStats{}, fmt.Errorf("server: bad stats payload size %d", len(data))
	}
	if data[48] > 1 {
		return DBStats{}, fmt.Errorf("server: bad stats persistence flag %d", data[48])
	}
	return DBStats{
		Mappings:           binary.LittleEndian.Uint64(data[0:]),
		DatabaseBytes:      binary.LittleEndian.Uint64(data[8:]),
		OracleInserts:      binary.LittleEndian.Uint64(data[16:]),
		SnapshotSeq:        binary.LittleEndian.Uint64(data[24:]),
		WALBytes:           binary.LittleEndian.Uint64(data[32:]),
		LastCompactionUnix: int64(binary.LittleEndian.Uint64(data[40:])),
		Persistent:         data[48] == 1,
	}, nil
}

// encodeLocateResult serializes a query response.
func encodeLocateResult(r LocateResult) []byte {
	buf := make([]byte, 5*8+4)
	off := 0
	for _, f := range []float64{r.Position.X, r.Position.Y, r.Position.Z, r.Yaw, r.Residual} {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(f))
		off += 8
	}
	binary.LittleEndian.PutUint32(buf[off:], uint32(r.Matched))
	return buf
}

// decodeLocateResult parses a query response.
func decodeLocateResult(data []byte) (LocateResult, error) {
	if len(data) != 5*8+4 {
		return LocateResult{}, errors.New("server: bad locate result size")
	}
	var r LocateResult
	fs := make([]float64, 5)
	for i := range fs {
		fs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	r.Position = mathx.Vec3{X: fs[0], Y: fs[1], Z: fs[2]}
	r.Yaw, r.Residual = fs[3], fs[4]
	r.Matched = int(binary.LittleEndian.Uint32(data[40:]))
	return r, nil
}
