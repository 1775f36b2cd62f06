package server

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"

	"visualprint/internal/mathx"
	"visualprint/internal/pose"
	"visualprint/internal/scene"
	"visualprint/internal/sift"
	"visualprint/internal/wardrive"
)

func testVenue() *scene.World {
	return scene.Build(scene.VenueSpec{
		Name: "server-test", Width: 16, Depth: 10, Height: 3,
		Aisles: 0, PanelWidth: 2,
		UniqueFrac: 0.7, RepeatedFrac: 0.15,
		Seed: 11, TileSize: 0.5,
	})
}

// wardriveMappings returns drift-free observations of the venue as server
// mappings.
func wardriveMappings(t testing.TB, w *scene.World) []Mapping {
	t.Helper()
	cfg := wardrive.DefaultConfig()
	cfg.ImageW, cfg.ImageH = 200, 150
	cfg.StepMeters = 2.5
	cfg.RowSpacing = 4
	cfg.MaxKeypointsPerFrame = 250
	cfg.Drift = wardrive.DriftModel{} // drift-free for server tests
	cfg.CloudStride = 0
	snaps, err := wardrive.Walk(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ms []Mapping
	for _, o := range wardrive.Observations(snaps) {
		m := Mapping{Pos: o.Est}
		copy(m.Desc[:], o.Keypoint.Desc[:])
		ms = append(ms, m)
	}
	if len(ms) < 500 {
		t.Fatalf("only %d wardriven mappings", len(ms))
	}
	return ms
}

func startServer(t testing.TB) (*Server, *Database) {
	t.Helper()
	db, err := NewDatabase(DefaultDatabaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, routerFor(t, db))
	s.Log = nil
	t.Cleanup(func() { s.Close() })
	return s, db
}

func dialClient(t testing.TB, s *Server) *Client {
	t.Helper()
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestIngestAndStatsOverTCP(t *testing.T) {
	s, db := startServer(t)
	c := dialClient(t, s)
	ms := make([]Mapping, 10)
	for i := range ms {
		ms[i].Desc[0] = byte(i)
		ms[i].Pos = mathx.Vec3{X: float64(i)}
	}
	total, err := c.Ingest(context.Background(), ms)
	if err != nil {
		t.Fatal(err)
	}
	if total != 10 || db.Len() != 10 {
		t.Errorf("total=%d dbLen=%d", total, db.Len())
	}
	n, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("stats = %d", n)
	}
	if c.BytesSent() == 0 || c.BytesReceived() == 0 {
		t.Error("byte counters not advancing")
	}
}

func TestOracleDownloadAgrees(t *testing.T) {
	s, db := startServer(t)
	c := dialClient(t, s)
	ms := make([]Mapping, 50)
	for i := range ms {
		for j := range ms[i].Desc {
			ms[i].Desc[j] = byte((i*7 + j*13) % 256)
		}
	}
	if _, err := c.Ingest(context.Background(), ms); err != nil {
		t.Fatal(err)
	}
	h := c.OracleSync()
	oracle, err := h.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.TransferBytes() <= 0 {
		t.Error("blob size not reported")
	}
	// The downloaded oracle must agree with the server's on every inserted
	// descriptor.
	live, err := db.OracleClone()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ms {
		want, _ := live.Uniqueness(ms[i].Desc[:])
		got, err := oracle.Uniqueness(ms[i].Desc[:])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("downloaded oracle disagrees on descriptor %d: %d vs %d", i, got, want)
		}
	}
}

func TestEndToEndLocalization(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end localization is slow")
	}
	w := testVenue()
	s, _ := startServer(t)
	c := dialClient(t, s)
	ms := wardriveMappings(t, w)
	// Ingest in batches, as the wardriving app streams them.
	for i := 0; i < len(ms); i += 500 {
		end := i + 500
		if end > len(ms) {
			end = len(ms)
		}
		if _, err := c.Ingest(context.Background(), ms[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	oracle, err := c.OracleSync().Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Client side: photograph a unique POI from a new viewpoint.
	pois := w.POIsOfKind(scene.POIUnique)
	if len(pois) == 0 {
		t.Fatal("no unique POIs")
	}
	good := 0
	var errs []float64
	for trial := 0; trial < 3 && trial < len(pois); trial++ {
		cam := scene.CameraFacing(w, pois[trial], 3.2, 0.25, -0.05, 200, 150)
		fr, err := scene.Render(w, cam)
		if err != nil {
			t.Fatal(err)
		}
		sc := sift.DefaultConfig()
		sc.ContrastThreshold = 0.02
		kps := sift.Detect(fr.Image, sc)
		if len(kps) < 20 {
			continue
		}
		sel, err := oracle.SelectUnique(kps, 60)
		if err != nil {
			t.Fatal(err)
		}
		intr := pose.Intrinsics{W: cam.W, H: cam.H, FovX: cam.FovX, FovY: cam.FovY()}
		res, err := c.Query(context.Background(), sel, intr)
		if err != nil {
			continue // some views may lack consensus
		}
		d := res.Position.Dist(cam.Pos)
		errs = append(errs, d)
		if d < 3 {
			good++
		}
	}
	if good == 0 {
		t.Fatalf("no trial localized within 3 m; errors: %v", errs)
	}
}

func TestQueryOnEmptyDatabase(t *testing.T) {
	s, _ := startServer(t)
	c := dialClient(t, s)
	kps := make([]sift.Keypoint, 5)
	_, err := c.Query(context.Background(), kps, pose.Intrinsics{W: 100, H: 100, FovX: 1, FovY: 1})
	if err == nil {
		t.Fatal("empty database query succeeded")
	}
	if !IsRemote(err) {
		t.Errorf("want remote error, got %v", err)
	}
	if !errors.Is(err, ErrEmptyDatabase) {
		t.Errorf("want ErrEmptyDatabase over the wire, got %v", err)
	}
	if !strings.Contains(err.Error(), "empty") {
		t.Errorf("unexpected error: %v", err)
	}
	// The connection survives a remote error: next request works.
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatalf("connection dead after remote error: %v", err)
	}
}

func TestServeConnOverPipe(t *testing.T) {
	db, err := NewDatabase(DefaultDatabaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{router: routerFor(t, db), conns: map[net.Conn]struct{}{}}
	clientEnd, serverEnd := net.Pipe()
	go s.ServeConn(serverEnd)
	c := NewClient(clientEnd)
	defer c.Close()
	if _, err := c.Ingest(context.Background(), []Mapping{{}}); err != nil {
		t.Fatal(err)
	}
	n, err := c.Stats(context.Background())
	if err != nil || n != 1 {
		t.Fatalf("stats = %d, err = %v", n, err)
	}
}

func TestConcurrentClients(t *testing.T) {
	s, db := startServer(t)
	const clients = 4
	const batches = 5
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			cl, err := Dial(s.Addr().String())
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			for b := 0; b < batches; b++ {
				ms := make([]Mapping, 20)
				for i := range ms {
					ms[i].Desc[0] = byte(c)
					ms[i].Desc[1] = byte(b)
					ms[i].Desc[2] = byte(i)
				}
				if _, err := cl.Ingest(context.Background(), ms); err != nil {
					errc <- err
					return
				}
				if _, err := cl.Stats(context.Background()); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Len(); got != clients*batches*20 {
		t.Errorf("db has %d mappings, want %d", got, clients*batches*20)
	}
}

func TestFrameRejectsOversized(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	defer clientEnd.Close()
	defer serverEnd.Close()
	go func() {
		// Handcrafted frame with an absurd length prefix.
		clientEnd.Write([]byte{0xff, 0xff, 0xff, 0xff})
	}()
	if _, _, _, err := readFrame(serverEnd); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestMappingWireRoundTrip(t *testing.T) {
	ms := make([]Mapping, 3)
	for i := range ms {
		for j := range ms[i].Desc {
			ms[i].Desc[j] = byte(i*50 + j)
		}
		ms[i].Pos = mathx.Vec3{X: float64(i) + 0.5, Y: 1.25, Z: -float64(i)}
	}
	back, err := decodeMappings(encodeMappings(ms))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ms {
		if back[i] != ms[i] {
			t.Fatalf("mapping %d corrupted", i)
		}
	}
	if _, err := decodeMappings([]byte{1, 2}); err == nil {
		t.Error("short payload accepted")
	}
}

func TestLocateResultRoundTrip(t *testing.T) {
	r := LocateResult{
		Position: mathx.Vec3{X: 1.5, Y: 2.5, Z: -3},
		Yaw:      0.7,
		Residual: 0.01,
		Matched:  42,
	}
	back, err := decodeLocateResult(encodeLocateResult(r))
	if err != nil {
		t.Fatal(err)
	}
	if back != r {
		t.Fatalf("round trip: %+v != %+v", back, r)
	}
	if _, err := decodeLocateResult([]byte{1}); err == nil {
		t.Error("short result accepted")
	}
}

func TestQueryUploadBytesMatchesWire(t *testing.T) {
	kps := make([]sift.Keypoint, 200)
	s, _ := startServer(t)
	c := dialClient(t, s)
	before := c.BytesSent()
	c.Query(context.Background(), kps, pose.Intrinsics{W: 100, H: 100, FovX: 1, FovY: 1}) // error ignored: empty DB
	sent := c.BytesSent() - before
	if sent != QueryUploadBytes(200) {
		t.Errorf("measured %d bytes, model %d", sent, QueryUploadBytes(200))
	}
}

// TestStatsWireCompat pins the stats wire contract: the one msgStats RPC
// answers the full DBStats payload, which both Client.Stats and
// Client.StatsFull decode.
func TestStatsWireCompat(t *testing.T) {
	s, db := startServer(t)
	ms := make([]Mapping, 7)
	for i := range ms {
		ms[i].Desc[0] = byte(i)
		ms[i].Pos = mathx.Vec3{X: float64(i)}
	}
	if err := db.Ingest(context.Background(), ms); err != nil {
		t.Fatal(err)
	}
	rt, resp := s.serveRequest(context.Background(), reqHeader{}, msgStats, nil, nil)
	if rt != msgStatsResult {
		t.Fatalf("msgStats response type = %d", rt)
	}
	if len(resp) != dbStatsWireSize {
		t.Fatalf("msgStats payload is %d bytes, want %d", len(resp), dbStatsWireSize)
	}
	full, err := decodeDBStats(resp)
	if err != nil {
		t.Fatal(err)
	}
	if full.Mappings != 7 || full.DatabaseBytes == 0 || full.OracleInserts != 7 {
		t.Fatalf("msgStats decoded %+v", full)
	}
	c := dialClient(t, s)
	n, err := c.Stats(context.Background())
	if err != nil || n != 7 {
		t.Fatalf("Stats = %d, %v", n, err)
	}
	got, err := c.StatsFull(context.Background())
	if err != nil || got != full {
		t.Fatalf("StatsFull = %+v, %v; want %+v", got, err, full)
	}
}
