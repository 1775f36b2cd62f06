package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"visualprint/internal/pose"
	"visualprint/internal/sift"
)

// headerCases is the request-header table shared by the unit tests and the
// fuzz corpus: all eight option combinations plus the field extremes.
var headerCases = []struct {
	name string
	h    reqHeader
}{
	{"plain", reqHeader{}},
	{"deadline", reqHeader{deadline: 250}},
	{"venue", reqHeader{venue: "mall-7"}},
	{"session", reqHeader{sid: 0xfeedface}},
	{"deadline+venue", reqHeader{deadline: 250, venue: "mall-7"}},
	{"deadline+session", reqHeader{deadline: 250, sid: 0xfeedface}},
	{"venue+session", reqHeader{venue: "mall-7", sid: 0xfeedface}},
	{"all", reqHeader{deadline: 250, venue: "mall-7", sid: 0xfeedface}},
	{"max deadline", reqHeader{deadline: deadlineWireMax}},
	{"one-byte venue", reqHeader{venue: "a"}},
	{"255-byte venue", reqHeader{venue: strings.Repeat("v", maxVenueName)}},
	{"max session", reqHeader{sid: ^uint64(0)}},
}

// encodeHeader is the header as writeFrame lays it out, followed by payload.
func encodeHeader(h reqHeader, payload []byte) []byte {
	buf := make([]byte, h.size(), h.size()+len(payload))
	if len(buf) > 0 {
		h.put(buf)
	}
	return append(buf, payload...)
}

func TestRequestHeaderRoundTrip(t *testing.T) {
	payload := []byte("payload")
	for _, tc := range headerCases {
		enc := encodeHeader(tc.h, payload)
		if tc.h == (reqHeader{}) {
			if !bytes.Equal(enc, payload) {
				t.Errorf("%s: empty header encoded %d bytes", tc.name, len(enc)-len(payload))
			}
			continue
		}
		h, rest, err := decodeReqHeader(enc)
		if err != nil || h != tc.h || !bytes.Equal(rest, payload) {
			t.Errorf("%s: decoded (%+v, %q, %v), want (%+v, %q)", tc.name, h, rest, err, tc.h, payload)
		}
		// Every strict prefix of the header itself is a truncation.
		for n := 0; n < tc.h.size(); n++ {
			if _, _, err := decodeReqHeader(enc[:n]); err == nil {
				t.Errorf("%s: %d-byte truncation accepted", tc.name, n)
			}
		}
	}
}

func TestRequestHeaderRejects(t *testing.T) {
	bad := map[string][]byte{
		"reserved trace bit":  {1 << 3},
		"unknown high bit":    {0x40},
		"uppercase venue":     {hdrVenue, 1, 'A'},
		"empty venue":         {hdrVenue, 0},
		"dot-leading venue":   {hdrVenue, 2, '.', 'a'},
		"zero session":        append([]byte{hdrSession}, make([]byte, 8)...),
		"venue overruns body": {hdrVenue, 200, 'a'},
	}
	for name, p := range bad {
		if _, _, err := decodeReqHeader(p); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// FuzzRequestHeader: the decoder never panics and never amplifies its input
// (the venue is bounded by the wire's one-byte length, the payload aliases
// the input), whatever it accepts survives a re-encode, and every valid
// header round-trips in front of any payload.
func FuzzRequestHeader(f *testing.F) {
	for _, tc := range headerCases {
		f.Add(encodeHeader(tc.h, []byte{1, 2, 3}), tc.h.deadline, tc.h.venue, tc.h.sid)
	}
	f.Fuzz(func(t *testing.T, data []byte, deadline uint32, venue string, sid uint64) {
		if h, rest, err := decodeReqHeader(data); err == nil {
			if len(h.venue) > maxVenueName || len(rest) >= len(data) {
				t.Fatalf("decode amplified %d bytes into venue %d, rest %d", len(data), len(h.venue), len(rest))
			}
			if len(rest) > 0 && &rest[len(rest)-1] != &data[len(data)-1] {
				t.Fatal("decoded payload does not alias the input")
			}
			if h != (reqHeader{}) {
				h2, rest2, err := decodeReqHeader(encodeHeader(h, rest))
				if err != nil || h2 != h || !bytes.Equal(rest2, rest) {
					t.Fatalf("re-encode of %+v decoded (%+v, %v)", h, h2, err)
				}
			}
		}
		h := reqHeader{deadline: deadline, venue: venue, sid: sid}
		if h == (reqHeader{}) || (venue != "" && !validVenueName(venue)) {
			return
		}
		got, rest, err := decodeReqHeader(encodeHeader(h, data))
		if err != nil || got != h || !bytes.Equal(rest, data) {
			t.Fatalf("round trip of %+v decoded (%+v, %v)", h, got, err)
		}
	})
}

// TestQueryWireSizeByHeader pins the bytes a 200-keypoint query costs on
// the wire for all eight option combinations, end to end through a live
// client and server. envelope is what the same options cost under the
// retired nested envelopes (deadline 5 B, venue 2+len B, session 9 B, each
// carrying an inner type byte): a single option costs the same, and every
// additional option saves that one byte.
func TestQueryWireSizeByHeader(t *testing.T) {
	s := startVenueServer(t)
	const venue = "mall-7"
	c, cv := dialClient(t, s), dialVenue(t, s, venue)
	kps := make([]sift.Keypoint, 200)
	intr := pose.Intrinsics{W: 100, H: 100, FovX: 1, FovY: 1}
	for _, tc := range headerCases[:8] {
		envelope, options := int64(0), int64(0)
		ctx := context.Background()
		if tc.h.deadline != 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Minute)
			defer cancel()
			envelope, options = envelope+5, options+1
		}
		cl, query := c, c.Query
		switch {
		case tc.h.venue != "" && tc.h.sid != 0:
			cl, query = cv, cv.Session().Query
			envelope, options = envelope+2+int64(len(venue))+9, options+2
		case tc.h.venue != "":
			cl, query = cv, cv.Query
			envelope, options = envelope+2+int64(len(venue)), options+1
		case tc.h.sid != 0:
			query = c.Session().Query
			envelope, options = envelope+9, options+1
		}
		want := QueryUploadBytes(200) + envelope
		if options > 1 {
			want -= options - 1
		}
		before := cl.BytesSent()
		// The database is empty: the typed answer proves the server decoded
		// the header and reached the engine.
		if _, err := query(ctx, kps, intr); !errors.Is(err, ErrEmptyDatabase) {
			t.Fatalf("%s: %v, want ErrEmptyDatabase", tc.name, err)
		}
		if got := cl.BytesSent() - before; got != want {
			t.Errorf("%s: query cost %d bytes on the wire, want %d", tc.name, got, want)
		}
	}
}

// TestMalformedHeaderAnsweredTyped: a bad header is an error response to
// that request ID — counted, and the connection keeps serving.
func TestMalformedHeaderAnsweredTyped(t *testing.T) {
	s, _ := startServer(t)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if err := writePreamble(conn); err != nil {
		t.Fatal(err)
	}
	// A flagged stats request whose header claims the reserved trace bit.
	if _, err := conn.Write([]byte{6, 0, 0, 0, 41, 0, 0, 0, msgStats | headerFlag, 1 << 3}); err != nil {
		t.Fatal(err)
	}
	id, typ, resp, err := readFrame(conn)
	if err != nil || id != 41 || typ != msgError {
		t.Fatalf("got id=%d type=%d err=%v, want an error frame for request 41", id, typ, err)
	}
	if !IsRemote(decodeErrorPayload(resp)) {
		t.Fatalf("undecodable rejection %q", resp)
	}
	if _, err := writeFrame(conn, 42, msgStats, reqHeader{deadline: 1000}, nil); err != nil {
		t.Fatal(err)
	}
	if id, typ, _, err := readFrame(conn); err != nil || id != 42 || typ != msgStatsResult {
		t.Fatalf("connection unusable after a rejected header: id=%d type=%d err=%v", id, typ, err)
	}
	if got := s.Registry().Report().Counters["requests_header_rejected"]; got != 1 {
		t.Errorf("requests_header_rejected = %d, want 1", got)
	}
}

// TestRefusedPreambleAnsweredTyped: a peer opening with another protocol
// version — version 3 too, which may still open the retired oracle
// subscription — or with no preamble at all (what a v1 client's first frame
// looks like), gets one well-framed id-0 ErrProtocolVersion frame and a
// close — and a Client on the receiving end fails its calls with that reason.
func TestRefusedPreambleAnsweredTyped(t *testing.T) {
	s, _ := startServer(t)
	preamble := func(version byte) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, protoMagic), version)
	}
	for name, hello := range map[string][]byte{
		"version 2":     preamble(2),
		"version 3":     preamble(3),
		"v1 bare frame": {1, 0, 0, 0, msgStats},
	} {
		conn, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		if _, err := conn.Write(hello); err != nil {
			t.Fatal(err)
		}
		id, typ, resp, err := readFrame(conn)
		if err != nil || id != 0 || typ != msgError {
			t.Fatalf("%s: got id=%d type=%d err=%v, want the id-0 error frame", name, id, typ, err)
		}
		if len(resp) == 0 || resp[0] != errCodeProtocolVersion || !errors.Is(decodeErrorPayload(resp), ErrProtocolVersion) {
			t.Fatalf("%s: refusal payload %q, want wire code %d", name, resp, errCodeProtocolVersion)
		}
		// EOF, or a reset when the refused bytes were still unread.
		if _, _, _, err := readFrame(conn); err == nil {
			t.Fatalf("%s: connection still open after the refusal", name)
		}
	}

	// The client half: an id-0 error frame fails the call in flight and
	// every later one with the typed reason, not "connection lost".
	clientEnd, serverEnd := net.Pipe()
	go func() {
		defer serverEnd.Close()
		io.ReadFull(serverEnd, make([]byte, preambleSize))
		writeFrame(serverEnd, 0, msgError, reqHeader{}, encodeErrorPayload(ErrProtocolVersion))
		io.Copy(io.Discard, serverEnd)
	}()
	c := NewClient(clientEnd)
	defer c.Close()
	for i := 0; i < 2; i++ {
		if _, err := c.Stats(context.Background()); !errors.Is(err, ErrProtocolVersion) || errors.Is(err, ErrConnectionLost) {
			t.Fatalf("call %d against a refusing server: %v, want ErrProtocolVersion", i, err)
		}
	}
}

// TestRetiredSubscriptionTypesAnsweredUnknown: types 35 and 36 carried the
// version-3 oracle epoch subscription. Retired, they are gaps like any
// other unassigned type: each is answered once, to its own request ID, as an
// unknown type, and the connection keeps serving.
func TestRetiredSubscriptionTypesAnsweredUnknown(t *testing.T) {
	s, _ := startServer(t)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if err := writePreamble(conn); err != nil {
		t.Fatal(err)
	}
	for i, typ := range []byte{35, 36} {
		id := uint32(i + 1)
		if _, err := writeFrame(conn, id, typ, reqHeader{}, make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
		gotID, rt, resp, err := readFrame(conn)
		if err != nil || gotID != id || rt != msgError {
			t.Fatalf("type %d: got id=%d type=%d err=%v, want msgError to id %d", typ, gotID, rt, err, id)
		}
		if want := fmt.Sprintf("unknown message type %d", typ); !strings.Contains(decodeErrorPayload(resp).Error(), want) {
			t.Fatalf("type %d answered %q, want %q", typ, decodeErrorPayload(resp), want)
		}
	}
	if _, err := writeFrame(conn, 3, msgStats, reqHeader{}, nil); err != nil {
		t.Fatal(err)
	}
	if id, rt, _, err := readFrame(conn); err != nil || id != 3 || rt != msgStatsResult {
		t.Fatalf("stats after the retired types: id=%d type=%d err=%v", id, rt, err)
	}
	if got := s.Registry().Report().Counters["requests_unknown"]; got != 2 {
		t.Errorf("requests_unknown = %d, want 2", got)
	}
}

// TestHostileLengthPrefixBoundedAlloc: a length prefix is a claim, not a
// reservation — the read buffer grows with the bytes that actually arrive.
func TestHostileLengthPrefixBoundedAlloc(t *testing.T) {
	rt := newTestRouter(t, DefaultDatabaseConfig(), nil)
	s := &Server{router: rt, met: newSrvMetrics(rt.Registry())}
	clientEnd, serverEnd := net.Pipe()
	done := make(chan struct{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	go func() { defer close(done); s.ServeConn(serverEnd) }()
	if err := writePreamble(clientEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := clientEnd.Write(binary.LittleEndian.AppendUint32(nil, maxFrameSize-1)); err != nil {
		t.Fatal(err)
	}
	clientEnd.Close()
	<-done
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a 4-byte length prefix made the server allocate %d bytes", got)
	}

	// A legitimate large frame — a 2 MiB ingest — still arrives whole.
	payload := encodeMappings(randomBatch(rand.New(rand.NewSource(3)), (2<<20)/mappingWireSize+1))
	r, w := net.Pipe()
	go func() {
		writeFrame(w, 9, msgIngest, reqHeader{venue: "mall-7"}, payload)
		w.Close()
	}()
	id, typ, got, err := readFrame(r)
	if err != nil || id != 9 || typ != msgIngest|headerFlag {
		t.Fatalf("large frame: id=%d type=%#x err=%v", id, typ, err)
	}
	if h, rest, err := decodeReqHeader(got); err != nil || h.venue != "mall-7" || !bytes.Equal(rest, payload) {
		t.Fatalf("large frame payload corrupted (header %+v, err %v)", h, err)
	}
}
