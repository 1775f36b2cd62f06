package visualprint

import (
	"context"
	"testing"
)

func smallWorld() *World {
	return BuildWorld(VenueSpec{
		Name: "api-test", Width: 14, Depth: 10, Height: 3,
		Aisles: 0, PanelWidth: 2,
		UniqueFrac: 0.65, RepeatedFrac: 0.15,
		Seed: 21, TileSize: 0.5,
	})
}

func fastWardrive() WardriveConfig {
	cfg := DefaultWardriveConfig()
	cfg.ImageW, cfg.ImageH = 180, 135
	cfg.StepMeters = 2.5
	cfg.RowSpacing = 4
	cfg.MaxKeypointsPerFrame = 200
	return cfg
}

func TestWorldConstructors(t *testing.T) {
	for _, w := range []*World{
		NewOfficeWorld(1), NewCafeteriaWorld(1), NewGroceryWorld(1), NewGalleryWorld(1),
	} {
		if len(w.Surfaces) == 0 || len(w.POIs) == 0 {
			t.Errorf("%s: empty world", w.Name)
		}
	}
}

func TestExtractKeypointsViaPublicAPI(t *testing.T) {
	w := smallWorld()
	pois := w.POIsOfKind(POIUnique)
	if len(pois) == 0 {
		t.Fatal("no unique POIs")
	}
	cam := CameraFacing(w, pois[0], 3, 0, 0, 160, 120)
	fr, err := Render(w, cam)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSiftConfig()
	cfg.ContrastThreshold = 0.02
	kps := ExtractKeypoints(fr.Image, cfg)
	if len(kps) < 10 {
		t.Errorf("only %d keypoints through the public API", len(kps))
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is slow")
	}
	w := smallWorld()
	p, err := NewPipeline(w, DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.SelectCount = 60
	n, err := p.Wardrive(fastWardrive(), false)
	if err != nil {
		t.Fatal(err)
	}
	if n < 500 {
		t.Fatalf("only %d mappings ingested", n)
	}
	if p.Oracle == nil {
		t.Fatal("oracle not installed after wardrive")
	}

	pois := w.POIsOfKind(POIUnique)
	good := 0
	tried := 0
	for i := 0; i < len(pois) && tried < 3; i++ {
		cam := CameraFacing(w, pois[i], 3.0, 0.2, 0, 180, 135)
		res, stats, err := p.Localize(context.Background(), cam)
		if err != nil {
			continue
		}
		tried++
		if stats.UploadedKeypoints > p.SelectCount {
			t.Fatalf("uploaded %d > SelectCount %d", stats.UploadedKeypoints, p.SelectCount)
		}
		if stats.UploadBytes >= 100_000 {
			t.Fatalf("upload bytes %d not an order below whole frames", stats.UploadBytes)
		}
		if res.Position.Dist(cam.Pos) < 3 {
			good++
		}
	}
	if good == 0 {
		t.Error("no successful localization through the public pipeline")
	}
}

func TestCorrectDriftBoundedHarm(t *testing.T) {
	if testing.Short() {
		t.Skip("drift correction test is slow")
	}
	// Point-to-point ICP cannot observe in-plane drift in plane-dominated
	// venues (see EXPERIMENTS.md, "ICP — honest negative result"), so the
	// contract for CorrectDrift is bounded harm: acceptance gating must
	// keep the corrected map close to (or better than) the drifted one,
	// never corrupt it wholesale.
	w := smallWorld()
	cfg := fastWardrive()
	cfg.Drift.PosStddevPerMeter = 0.08
	snaps, err := Wardrive(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before, after, err := CorrectDrift(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if before <= 0 {
		t.Fatalf("no drift to correct (before=%v)", before)
	}
	if after > before*1.3+0.1 {
		t.Errorf("ICP corrupted the map: %.3f -> %.3f", before, after)
	}
}

func TestMappingsFromPreservesCount(t *testing.T) {
	w := smallWorld()
	cfg := fastWardrive()
	cfg.CloudStride = 0
	snaps, err := Wardrive(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := range snaps {
		total += len(snaps[i].Obs)
	}
	if got := len(MappingsFrom(snaps)); got != total {
		t.Errorf("mappings %d != observations %d", got, total)
	}
}

func TestQueryUploadBytesScale(t *testing.T) {
	// 200-keypoint fingerprints must be ~30 KB (the paper's estimate) and
	// far below a whole frame.
	b := QueryUploadBytes(200)
	if b < 20_000 || b > 40_000 {
		t.Errorf("200-keypoint query = %d bytes, want ~30 KB", b)
	}
}

func TestBlurScorePublicAPI(t *testing.T) {
	w := smallWorld()
	cam := CameraFacing(w, w.POIsOfKind(POIUnique)[0], 2.5, 0, 0, 120, 90)
	fr, err := Render(w, cam)
	if err != nil {
		t.Fatal(err)
	}
	sharp := BlurScore(fr.Image)
	blurred := BlurScore(MotionBlur(fr.Image, 9))
	if blurred >= sharp {
		t.Errorf("blur score did not drop: %v -> %v", sharp, blurred)
	}
}

func TestRunSessionPublicAPI(t *testing.T) {
	res, err := RunSession(SessionConfig{
		FPS: 30, Duration: 2e9, // 2 s
		ExtractTime: 50e6, FilterTime: 2e6,
		UploadBytes: 29000,
		Link:        Link{UplinkMbps: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed == 0 || res.Processed+res.Stale+res.Blurred != len(res.Frames) {
		t.Errorf("session accounting: %+v", res)
	}
}

func TestServerListenAndConnect(t *testing.T) {
	srv, err := NewServer(DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Connect(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Ingest(context.Background(), []Mapping{{}}); err != nil {
		t.Fatal(err)
	}
	n, err := c.Stats(context.Background())
	if err != nil || n != 1 {
		t.Fatalf("stats = %d, err = %v", n, err)
	}
}
