package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	vp "visualprint"
)

const (
	imgW, imgH = 240, 180
	// selectCount is the fingerprint size. The paper uploads 200 keypoints
	// of ~3,500; these 240x180 frames yield ~95, so 200 would pass every
	// keypoint through and the oracle would do nothing.
	selectCount = 64
	ingestBatch = 500  // mappings per bulk-ingest request during set-up
	mixBatch    = 40   // mappings per wardrive_mix ingest request
	walkStep    = 0.08 // session_walk: meters per frame
)

// venue is the repo's Quick-scale office (internal/bench: OfficeSpec(1)
// shrunk by 0.35). Its texture seed is fixed: between venue seeds the map
// size moves by a third and the median position error by 2x, which would
// put every metric's seed-to-seed spread above any bound. --seed drives
// what a deployment would also see vary: where the users stand, where they
// start walking, and the order the map arrives in.
func venue() vp.VenueSpec {
	return vp.VenueSpec{
		Name: "office", Width: 17.5, Depth: 8, Height: 3,
		Aisles: 1, PanelWidth: 2.5,
		UniqueFrac: 0.40, RepeatedFrac: 0.30,
		Seed: 1, TileSize: 0.6, AisleSpacing: 6,
		AisleUnique: 0.35, AisleRepeated: 0.40,
		Clutter: 3,
	}
}

func siftConfig() vp.SiftConfig {
	sc := vp.DefaultSiftConfig()
	sc.ContrastThreshold = 0.02
	return sc
}

// view is one query viewpoint: the camera's true pose, the frame the
// renderer produced for it, and what the client pipeline made of it.
type view struct {
	cam   vp.Camera
	intr  vp.Intrinsics
	frame *vp.Frame
	kps   []vp.Keypoint // every extracted keypoint, strongest first
	fp    []vp.Keypoint // the selectCount most unique; set once the oracle is synced
	// wire is fp as the server receives it: the upload format carries
	// pixel coordinates as float32.
	wire []vp.Keypoint
}

// survey is the venue's map as wardriving produced it, before the seed
// orders it: the same for every run.
type survey struct {
	first  []vp.Mapping // the pass the server is loaded with during set-up
	second []vp.Mapping // wardrive_mix: a later pass, ingested while queries run
}

// inputs is everything a workload feeds the program, made from the seed
// before any timed span. Rendering stands in for the camera and
// wardriving for the offline mapping pass; neither is the system under
// test here, so both stay out of setup_s (see README).
type inputs struct {
	world   *vp.World
	batches [][]vp.Mapping // first pass in bulk-ingest batches, seed order
	second  [][]vp.Mapping // second pass in mixBatch batches, seed order
	views   []view
	walks   [][]int // session_walk: per session, the view indices of its walk
	genS    float64
}

// scale sizes the viewpoints. The benchmark always runs at fullScale; the
// smoke test shrinks them so four workloads fit in a few seconds.
type scale struct {
	views      int // POI viewpoints (cold workloads)
	walkFrames int // frames per session walk before it turns back
}

var fullScale = scale{views: 48, walkFrames: 40}

// makeInputs builds the inputs of one workload. The two halves, map and
// viewpoints, are independent and run on one core each. sv, when not nil,
// is a survey made earlier (the smoke test makes one for all its runs).
func makeInputs(workload string, seed int64, sc scale, sv *survey) (*inputs, error) {
	t0 := time.Now()
	in := &inputs{world: vp.BuildWorld(venue())}
	rng := rand.New(rand.NewSource(seed))

	var wg sync.WaitGroup
	var svErr, viewErr error
	if sv == nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sv, svErr = surveyVenue(in.world, workload == "wardrive_mix")
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if workload == "session_walk" {
			viewErr = in.makeWalks(rng, sc.walkFrames)
		} else {
			viewErr = in.makeViews(rng, sc.views)
		}
	}()
	wg.Wait()
	if err := errors.Join(svErr, viewErr); err != nil {
		return nil, err
	}
	in.batches = shuffled(rng, chunk(sv.first, ingestBatch))
	in.second = shuffled(rng, chunk(sv.second, mixBatch))
	in.genS = time.Since(t0).Seconds()
	return in, nil
}

// chunk cuts ms into batches of n, dropping a short tail so that every
// batch is the same size and mapping counts stay exact.
func chunk(ms []vp.Mapping, n int) [][]vp.Mapping {
	var out [][]vp.Mapping
	for i := 0; i+n <= len(ms); i += n {
		out = append(out, ms[i:i+n])
	}
	return out
}

func shuffled(rng *rand.Rand, bs [][]vp.Mapping) [][]vp.Mapping {
	rng.Shuffle(len(bs), func(i, j int) { bs[i], bs[j] = bs[j], bs[i] })
	return bs
}

func wardrive(w *vp.World, cfg vp.WardriveConfig) ([]vp.Mapping, error) {
	snaps, err := vp.Wardrive(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("wardrive: %w", err)
	}
	if _, _, err := vp.CorrectDrift(snaps); err != nil {
		return nil, fmt.Errorf("drift correction: %w", err)
	}
	return vp.MappingsFrom(snaps), nil
}

func surveyVenue(w *vp.World, secondPass bool) (*survey, error) {
	sv := &survey{}
	var err error
	if sv.first, err = wardrive(w, vp.DefaultWardriveConfig()); err != nil || !secondPass {
		return sv, err
	}
	// A later, denser walk of the same floor by another device: its own
	// drift, no POI sweep.
	cfg := vp.DefaultWardriveConfig()
	cfg.RowSpacing, cfg.StepMeters = 4, 2.5
	cfg.SweepPOIs = false
	cfg.Drift.Seed = 2
	sv.second, err = wardrive(w, cfg)
	return sv, err
}

func (in *inputs) addView(cam vp.Camera) error {
	fr, err := vp.Render(in.world, cam)
	if err != nil {
		return fmt.Errorf("render: %w", err)
	}
	in.views = append(in.views, view{
		cam: cam, intr: vp.IntrinsicsOf(cam), frame: fr,
		kps: vp.ExtractKeypoints(fr.Image, siftConfig()),
	})
	return nil
}

// makeViews places n cameras facing the venue's unique POIs: near and far,
// from the left, head on and from the right, each jittered by the seed.
func (in *inputs) makeViews(rng *rand.Rand, n int) error {
	pois := in.world.POIsOfKind(vp.POIUnique)
	if len(pois) == 0 {
		return fmt.Errorf("venue has no unique POI")
	}
	for i := 0; i < n; i++ {
		poi := pois[i%len(pois)]
		k := i / len(pois)
		dist := []float64{2.5, 3.25}[k%2] + 0.25*rng.Float64()
		yaw := []float64{-0.2, 0, 0.2}[(k/2)%3] + 0.06*(rng.Float64()-0.5)
		pitch := -0.05 + 0.04*(rng.Float64()-0.5)
		if err := in.addView(vp.CameraFacing(in.world, poi, dist, yaw, pitch, imgW, imgH)); err != nil {
			return err
		}
	}
	return nil
}

// makeWalks lays one walk per session: an arc of frames steps of walkStep
// meters around a unique POI, the camera kept on it, as a visitor circles an
// exhibit. The seed picks the POIs, the radius and where on the arc the walk
// is centered.
func (in *inputs) makeWalks(rng *rand.Rand, frames int) error {
	pois := in.world.POIsOfKind(vp.POIUnique)
	if len(pois) < 2 {
		return fmt.Errorf("venue has %d unique POIs, session_walk needs 2", len(pois))
	}
	first := rng.Intn(len(pois))
	for s := 0; s < 2; s++ {
		poi := pois[(first+s*(len(pois)/2))%len(pois)]
		radius := 2.75 + 0.5*rng.Float64()
		step := walkStep / radius // radians per frame
		start := -step*float64(frames-1)/2 + 0.1*(rng.Float64()-0.5)
		var walk []int
		for f := 0; f < frames; f++ {
			walk = append(walk, len(in.views))
			cam := vp.CameraFacing(in.world, poi, radius, start+step*float64(f), -0.05, imgW, imgH)
			if err := in.addView(cam); err != nil {
				return err
			}
		}
		in.walks = append(in.walks, walk)
	}
	return nil
}
