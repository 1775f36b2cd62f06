package server

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"visualprint/internal/codec"
	"visualprint/internal/mathx"
	"visualprint/internal/pose"
	"visualprint/internal/sift"
)

// keypointMagic opens every keypoint payload (codec keeps its copy private).
const keypointMagic = "VPKP1\x00"

// keypointBits flattens a keypoint to comparable bits (== on floats chokes
// on NaN, which the wire can carry).
func keypointBits(kp sift.Keypoint) [4]uint64 {
	return [4]uint64{math.Float64bits(kp.X), math.Float64bits(kp.Y), math.Float64bits(kp.Scale), math.Float64bits(kp.Orientation)}
}

// FuzzRequestBodies covers the three decoders dispatch feeds straight from
// the socket after the request header: decodeMappings (ingest) and
// decodeQueryHeader + codec.UnmarshalKeypoints (query). None may panic; none
// may be talked into allocating by a length prefix (each accepts only a
// payload whose byte count matches its record count exactly, so what it
// builds is bounded by what it was sent); whatever one accepts re-encodes to
// the bytes it came from; and any byte string cut to whole records and given
// an honest count decodes.
func FuzzRequestBodies(f *testing.F) {
	ms := []Mapping{{}, {}}
	ms[1].Desc[3], ms[1].Pos.X = 9, -2.5
	f.Add(encodeMappings(ms))
	f.Add(encodeQuery(pose.Intrinsics{W: 640, H: 480, FovX: 1.1, FovY: 0.85}, codec.MarshalKeypoints(make([]sift.Keypoint, 3))))
	f.Add(encodeQuery(pose.Intrinsics{}, nil))
	// Hostile counts: four billion records announced, none sent.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(encodeQuery(pose.Intrinsics{W: 1}, append([]byte(keypointMagic), 0xff, 0xff, 0xff, 0xff)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if ms, err := decodeMappings(data); err == nil {
			if 4+len(ms)*mappingWireSize != len(data) {
				t.Fatalf("decodeMappings built %d mappings from %d bytes", len(ms), len(data))
			}
			if !bytes.Equal(encodeMappings(ms), data) {
				t.Fatal("accepted ingest payload does not re-encode to itself")
			}
		}
		if intr, rest, err := decodeQueryHeader(data); err == nil {
			if len(rest) != len(data)-queryHeaderSize || (len(rest) > 0 && &rest[len(rest)-1] != &data[len(data)-1]) {
				t.Fatalf("decodeQueryHeader returned %d of %d bytes, or a copy", len(rest), len(data))
			}
			if !bytes.Equal(encodeQuery(intr, rest), data) {
				t.Fatal("accepted query payload does not re-encode to itself")
			}
			checkKeypointPayload(t, rest)
		}
		checkKeypointPayload(t, data)

		// Honest payloads built from the same bytes always decode.
		body := data[:len(data)/mappingWireSize*mappingWireSize]
		ingest := binary.LittleEndian.AppendUint32(nil, uint32(len(body)/mappingWireSize))
		if ms, err := decodeMappings(append(ingest, body...)); err != nil || len(ms) != len(body)/mappingWireSize {
			t.Fatalf("honest ingest payload of %d bytes: %d mappings, %v", len(body), len(ms), err)
		}
		body = data[:len(data)/codec.KeypointWireSize*codec.KeypointWireSize]
		query := binary.LittleEndian.AppendUint32([]byte(keypointMagic), uint32(len(body)/codec.KeypointWireSize))
		if kps, err := codec.UnmarshalKeypoints(append(query, body...)); err != nil || len(kps) != len(body)/codec.KeypointWireSize {
			t.Fatalf("honest keypoint payload of %d bytes: %d keypoints, %v", len(body), len(kps), err)
		}
	})
}

// checkKeypointPayload holds UnmarshalKeypoints to the same contract. The
// wire carries float32 and a Keypoint float64, and a signaling NaN does not
// survive the widening, so "re-encodes to itself" is checked one decode
// later: decode(encode(decode(x))) equals decode(x) bit for bit.
func checkKeypointPayload(t *testing.T, data []byte) {
	kps, err := codec.UnmarshalKeypoints(data)
	if err != nil {
		return
	}
	if len(keypointMagic)+4+len(kps)*codec.KeypointWireSize != len(data) {
		t.Fatalf("UnmarshalKeypoints built %d keypoints from %d bytes", len(kps), len(data))
	}
	again, err := codec.UnmarshalKeypoints(codec.MarshalKeypoints(kps))
	if err != nil || len(again) != len(kps) {
		t.Fatalf("re-encoded keypoints decoded (%d, %v), want %d", len(again), err, len(kps))
	}
	for i := range kps {
		if keypointBits(again[i]) != keypointBits(kps[i]) || again[i].Desc != kps[i].Desc {
			t.Fatalf("keypoint %d changed across a re-encode: %+v -> %+v", i, kps[i], again[i])
		}
	}
}

// allocBytes reports the heap bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeReplBatchBoundsRecordCount: a replica decodes msgReplBatch from
// whatever answers its fetch, so the record count in the 20-byte header is a
// claim, not a reservation — a million records announced and none sent must
// not cost a million slice headers.
func TestDecodeReplBatchBoundsRecordCount(t *testing.T) {
	p := encodeReplBatch(7, 9, nil)
	binary.LittleEndian.PutUint32(p[16:], 1<<20)
	var err error
	if got := allocBytes(func() { _, _, _, err = decodeReplBatch(p) }); got >= 1<<20 {
		t.Fatalf("a %d-byte batch claiming 1<<20 records allocated %d bytes", len(p), got)
	}
	if err == nil {
		t.Fatal("a batch claiming more records than it carries decoded")
	}
}

// FuzzResponseBodies covers the decoders a client or a replica runs on the
// bytes a peer answers with: decodeReplBatch, decodeLocateResult,
// decodeDBStats, decodeOracleSyncFull, decodeOracleVersion and
// decodeErrorPayload. None may panic; none may allocate more than a small
// multiple of what it was sent; whatever one accepts re-encodes to the bytes
// it came from wherever an encoder exists. A remote error has no encoder of
// its own, so decodeErrorPayload is held to what survives the wire: the
// redirect address of a not-primary answer and the code of a typed one.
func FuzzResponseBodies(f *testing.F) {
	f.Add(encodeReplBatch(3, 5, [][]byte{{1, 2, 3}, {}}))
	f.Add(encodeLocateResult(LocateResult{Position: mathx.Vec3{X: 1, Y: -2, Z: 3}, Yaw: 0.5, Residual: 1e-3, Matched: 42}))
	f.Add(encodeDBStats(DBStats{Mappings: 10, Persistent: true, LastCompactionUnix: -1}))
	f.Add(encodeOracleSyncFull(4, []byte("blob")))
	f.Add(encodeOracleVersion(1, 2))
	f.Add(encodeErrorPayload(&NotPrimaryError{Primary: "10.0.0.1:7310"}))
	f.Add(encodeErrorPayload(ErrOverloaded))
	// Hostile count: four billion repl records announced, none sent.
	f.Add(append(encodeOracleVersion(0, 0), 0xff, 0xff, 0xff, 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		limit := 64<<10 + 8*uint64(len(data))
		bounded := func(name string, decode func()) {
			if got := allocBytes(decode); got > limit {
				t.Fatalf("%s allocated %d bytes for a %d-byte payload", name, got, len(data))
			}
		}
		reencodes := func(name string, enc []byte) {
			if !bytes.Equal(enc, data) {
				t.Fatalf("accepted %s payload does not re-encode to itself", name)
			}
		}
		var err error

		var first, head uint64
		var records [][]byte
		bounded("decodeReplBatch", func() { first, head, records, err = decodeReplBatch(data) })
		if err == nil {
			reencodes("repl batch", encodeReplBatch(first, head, records))
		}
		var res LocateResult
		bounded("decodeLocateResult", func() { res, err = decodeLocateResult(data) })
		if err == nil {
			reencodes("locate result", encodeLocateResult(res))
		}
		var st DBStats
		bounded("decodeDBStats", func() { st, err = decodeDBStats(data) })
		if err == nil {
			reencodes("stats", encodeDBStats(st))
		}
		var epoch, inserts uint64
		var blob []byte
		bounded("decodeOracleSyncFull", func() { epoch, blob, err = decodeOracleSyncFull(data) })
		if err == nil {
			reencodes("oracle sync", encodeOracleSyncFull(epoch, blob))
		}
		bounded("decodeOracleVersion", func() { epoch, inserts, err = decodeOracleVersion(data) })
		if err == nil {
			reencodes("oracle version", encodeOracleVersion(epoch, inserts))
		}

		bounded("decodeErrorPayload", func() { err = decodeErrorPayload(data) })
		_ = err.Error()
		switch {
		case len(data) == 0:
		case data[0] == errCodeNotPrimary:
			reencodes("not-primary error", encodeErrorPayload(err))
		case sentinelFor(data[0]) != nil:
			if code := encodeErrorPayload(err)[0]; code != data[0] {
				t.Fatalf("error code %d came back as %d", data[0], code)
			}
		}
	})
}
