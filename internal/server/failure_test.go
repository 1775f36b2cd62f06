package server

// Failure-injection tests for the paper's section 5 failure modes: "It can
// fail due to: (1) a lack of ample features in the query image, such as
// hallway with white walls; (2) insufficient wardriving — the environment
// at a location may not be well fingerprinted; (3) false positives in
// keypoint matching — some environmental repetition might not be captured
// during wardriving; and (4) dead reckoning errors during wardriving."
// Each mode must fail *safely*: a diagnosable error or degraded accuracy,
// never a panic or a silently confident wrong answer.

import (
	"context"
	"testing"

	"visualprint/internal/scene"
	"visualprint/internal/sift"
	"visualprint/internal/wardrive"
)

// blankWallVenue is a featureless room: white walls, no art, no fixtures.
func blankWallVenue() *scene.World {
	return scene.Build(scene.VenueSpec{
		Name: "blank", Width: 14, Depth: 10, Height: 3,
		UniqueFrac: 0, RepeatedFrac: 0, // every panel flat
		Seed: 31, TileSize: 10, PanelWidth: 2, // near-featureless floor too
	})
}

func TestFailureModeFeaturelessQuery(t *testing.T) {
	// Mode 1: a white-wall query frame yields almost no keypoints, and the
	// query must fail with a diagnosable error rather than a bogus fix.
	w := testVenue()
	s, _ := startServer(t)
	c := dialClient(t, s)
	if _, err := c.Ingest(context.Background(), wardriveMappings(t, w)[:600]); err != nil {
		t.Fatal(err)
	}
	blank := blankWallVenue()
	cam := scene.DefaultCamera(160, 120)
	cam.Pos.X, cam.Pos.Y, cam.Pos.Z = 7, 1.5, 5
	fr, err := scene.Render(blank, cam)
	if err != nil {
		t.Fatal(err)
	}
	kps := sift.Detect(fr.Image, sift.DefaultConfig())
	if len(kps) > 10 {
		t.Fatalf("blank venue produced %d keypoints; scenario invalid", len(kps))
	}
	if _, err := c.Query(context.Background(), kps, sceneIntrinsics(cam)); err == nil {
		t.Error("featureless query returned a confident fix")
	} else if !IsRemote(err) {
		t.Errorf("want a remote (server-diagnosed) error, got %v", err)
	}
}

func TestFailureModeInsufficientWardriving(t *testing.T) {
	if testing.Short() {
		t.Skip("wardriving is slow")
	}
	// Mode 2: the database covers a DIFFERENT venue than the query. The
	// server must either find no consensus or return a poor match count —
	// there is no correct answer available.
	mapped := testVenue()
	s, _ := startServer(t)
	c := dialClient(t, s)
	if _, err := c.Ingest(context.Background(), wardriveMappings(t, mapped)[:800]); err != nil {
		t.Fatal(err)
	}
	other := scene.Build(scene.VenueSpec{
		Name: "elsewhere", Width: 16, Depth: 10, Height: 3,
		UniqueFrac: 0.7, RepeatedFrac: 0.1,
		Seed: 999, TileSize: 0.5, PanelWidth: 2, // different seed: different art
	})
	pois := other.POIsOfKind(scene.POIUnique)
	cam := scene.CameraFacing(other, pois[0], 3, 0, 0, 200, 150)
	fr, err := scene.Render(other, cam)
	if err != nil {
		t.Fatal(err)
	}
	sc := sift.DefaultConfig()
	sc.ContrastThreshold = 0.02
	kps := sift.Detect(fr.Image, sc)
	res, err := c.Query(context.Background(), kps, sceneIntrinsics(cam))
	if err == nil && res.Matched > len(kps)/2 {
		t.Errorf("unmapped venue produced a confident match: %+v", res)
	}
}

func TestFailureModeDriftedMapDegradesGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("wardriving is slow")
	}
	// Mode 4: heavy dead-reckoning error in the map shifts localization
	// results but must not break the pipeline; error grows roughly with
	// the injected drift, never into NaN or out-of-world fixes.
	w := testVenue()
	cfg := wardrive.DefaultConfig()
	cfg.ImageW, cfg.ImageH = 200, 150
	cfg.StepMeters = 2.5
	cfg.RowSpacing = 4
	cfg.MaxKeypointsPerFrame = 250
	cfg.CloudStride = 0
	cfg.Drift = wardrive.DriftModel{PosStddevPerMeter: 0.15, Seed: 5} // severe
	snaps, err := wardrive.Walk(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(DefaultDatabaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	var ms []Mapping
	for _, o := range wardrive.Observations(snaps) {
		m := Mapping{Pos: o.Est}
		copy(m.Desc[:], o.Keypoint.Desc[:])
		ms = append(ms, m)
	}
	if err := db.Ingest(context.Background(), ms); err != nil {
		t.Fatal(err)
	}
	pois := w.POIsOfKind(scene.POIUnique)
	sc := sift.DefaultConfig()
	sc.ContrastThreshold = 0.02
	for trial := 0; trial < 2 && trial < len(pois); trial++ {
		cam := scene.CameraFacing(w, pois[trial], 3, 0.1, 0, 200, 150)
		fr, err := scene.Render(w, cam)
		if err != nil {
			t.Fatal(err)
		}
		kps := sift.Detect(fr.Image, sc)
		res, err := db.Locate(context.Background(), kps, sceneIntrinsics(cam))
		if err != nil {
			continue // acceptable: no consensus under severe drift
		}
		p := res.Position
		if p.X != p.X || p.Y != p.Y || p.Z != p.Z { // NaN check
			t.Fatal("NaN position under drift")
		}
		lo, hi, _ := publishedBounds(db)
		if p.X < lo.X-1 || p.X > hi.X+1 || p.Z < lo.Z-1 || p.Z > hi.Z+1 {
			t.Errorf("position %v far outside the mapped bounds", p)
		}
	}
}
