package visualprint

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// benchVenue is the benchmark's venue (benchmark/inputs.go, a separate
// module): the repo's Quick-scale office.
func benchVenue() VenueSpec {
	return VenueSpec{
		Name: "office", Width: 17.5, Depth: 8, Height: 3,
		Aisles: 1, PanelWidth: 2.5,
		UniqueFrac: 0.40, RepeatedFrac: 0.30,
		Seed: 1, TileSize: 0.6, AisleSpacing: 6,
		AisleUnique: 0.35, AisleRepeated: 0.40,
		Clutter: 3,
	}
}

// TestPipelineAnswersGolden pins the client flow end to end, bit for bit:
// a drift-corrected wardrive of the benchmark's venue, then sixteen
// rendered views each extracted, cut to the 64 most unique keypoints by
// the oracle and localized. The digest covers every answer's position,
// yaw, residual, match and generation counts, and the keypoints extracted
// and uploaded.
func TestPipelineAnswersGolden(t *testing.T) {
	const want = "0b5c57daeeb5555e91820993db432b93bd347290b61f71e80d4f225afddb4715"
	w := BuildWorld(benchVenue())
	cfg := DefaultServerConfig()
	cfg.Pose.Deadline = 0 // a wall-clock cut would make the answers timing-dependent
	p, err := NewPipeline(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Server.Close()
	p.SelectCount = 64
	if _, err := p.Wardrive(DefaultWardriveConfig(), true); err != nil {
		t.Fatal(err)
	}
	pois := w.POIsOfKind(POIUnique)
	h := sha256.New()
	put := func(v uint64) {
		h.Write(binary.LittleEndian.AppendUint64(nil, v))
	}
	selected := 0
	for i := 0; i < 16; i++ {
		cam := CameraFacing(w, pois[i%len(pois)], 2.5+0.75*float64(i%2), 0.2*float64(i%3-1), -0.05, 240, 180)
		fr, err := Render(w, cam)
		if err != nil {
			t.Fatal(err)
		}
		res, stats, err := p.LocalizeFrame(context.Background(), fr)
		if err != nil {
			t.Fatalf("view %d: %v", i, err)
		}
		for _, v := range []float64{res.Position.X, res.Position.Y, res.Position.Z, res.Yaw, res.Residual} {
			put(math.Float64bits(v))
		}
		put(uint64(res.Matched))
		put(uint64(res.Generations))
		put(uint64(stats.ExtractedKeypoints))
		put(uint64(stats.UploadedKeypoints))
		if stats.UploadedKeypoints < stats.ExtractedKeypoints {
			selected++
		}
	}
	if selected == 0 {
		t.Fatal("no view had more keypoints than SelectCount: SelectUnique never ran")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("pipeline answers digest %s, want %s", got, want)
	}
}
