package bench

import (
	"context"
	"fmt"
	"math"
	"sync"

	"visualprint/internal/core"
	"visualprint/internal/icp"
	"visualprint/internal/mathx"
	"visualprint/internal/pose"
	"visualprint/internal/scene"
	"visualprint/internal/server"
	"visualprint/internal/sift"
	"visualprint/internal/wardrive"
)

// venueRun is a wardriven venue ingested into an engine's default venue,
// with the oracle a client would have synced, cached per scale.
type venueRun struct {
	world  *scene.World
	router *server.Router
	oracle *core.Oracle
	snaps  []wardrive.Snapshot
}

var (
	venueMu    sync.Mutex
	venueCache = map[string][]*venueRun{}
)

// wardriveConfig returns the session config used by the localization
// experiments.
func wardriveConfig(sc Scale) wardrive.Config {
	cfg := wardrive.DefaultConfig()
	cfg.ImageW, cfg.ImageH = sc.ImgW, sc.ImgH
	cfg.StepMeters = 3
	cfg.RowSpacing = 5
	cfg.MaxKeypointsPerFrame = 300
	cfg.SweepPOIs = true
	return cfg
}

// getVenueRuns wardrives the three venues (with drift), corrects drift via
// ICP, and ingests into fresh engines.
func getVenueRuns(sc Scale) ([]*venueRun, error) {
	venueMu.Lock()
	defer venueMu.Unlock()
	if runs, ok := venueCache[sc.Name]; ok {
		return runs, nil
	}
	var runs []*venueRun
	for _, spec := range venueSpecs(sc) {
		w := scene.Build(spec)
		snaps, err := wardrive.Walk(w, wardriveConfig(sc))
		if err != nil {
			return nil, fmt.Errorf("bench: wardrive %s: %w", spec.Name, err)
		}
		// ICP drift correction, as the paper's post-processing.
		if err := correctSnaps(snaps); err != nil {
			return nil, err
		}
		router, err := server.NewRouter(server.DefaultDatabaseConfig())
		if err != nil {
			return nil, err
		}
		var ms []server.Mapping
		for _, o := range wardrive.Observations(snaps) {
			m := server.Mapping{Pos: o.Est}
			copy(m.Desc[:], o.Keypoint.Desc[:])
			ms = append(ms, m)
		}
		if _, err := router.Ingest(context.Background(), "", ms); err != nil {
			return nil, err
		}
		oracle, err := router.Oracle("")
		if err != nil {
			return nil, err
		}
		runs = append(runs, &venueRun{world: w, router: router, oracle: oracle, snaps: snaps})
	}
	venueCache[sc.Name] = runs
	return runs, nil
}

// correctSnaps applies ICP sequence correction to the snapshots in place.
func correctSnaps(snaps []wardrive.Snapshot) error {
	clouds := make([][]mathx.Vec3, len(snaps))
	for i := range snaps {
		clouds[i] = snaps[i].Cloud
	}
	tfs, err := icp.CorrectSequence(clouds, icp.DefaultOptions())
	if err != nil {
		return err
	}
	for i := range snaps {
		tf := tfs[i]
		for j := range snaps[i].Obs {
			snaps[i].Obs[j].Est = tf.Apply(snaps[i].Obs[j].Est)
		}
		snaps[i].Cloud = tf.ApplyAll(snaps[i].Cloud)
	}
	return nil
}

// localizationErrors runs query views in a venue and returns per-query 3D
// errors and per-axis absolute errors.
func localizationErrors(run *venueRun, sc Scale) (errs []float64, axis [3][]float64, err error) {
	pois := run.world.POIsOfKind(scene.POIUnique)
	cfg := siftConfig()
	tried := 0
	for i := 0; i < len(pois) && tried < sc.LocalizationQueries; i++ {
		poi := pois[(i*7)%len(pois)]
		cam := scene.CameraFacing(run.world, poi, 3.0, 0.2*float64(i%3-1), -0.05, sc.ImgW, sc.ImgH)
		fr, rerr := scene.Render(run.world, cam)
		if rerr != nil {
			return nil, axis, rerr
		}
		kps := sift.Detect(fr.Image, cfg)
		if len(kps) < 15 {
			continue
		}
		// Client-side oracle selection, as deployed.
		sel, serr := run.oracle.SelectUnique(kps, 200)
		if serr != nil {
			return nil, axis, serr
		}
		intr := pose.Intrinsics{W: cam.W, H: cam.H, FovX: cam.FovX, FovY: cam.FovY()}
		res, qerr := run.router.Locate(context.Background(), "", sel, intr)
		if qerr != nil {
			continue // no consensus: the paper's failure cases
		}
		tried++
		errs = append(errs, res.Position.Dist(cam.Pos))
		axis[0] = append(axis[0], math.Abs(res.Position.X-cam.Pos.X))
		axis[1] = append(axis[1], math.Abs(res.Position.Y-cam.Pos.Y))
		axis[2] = append(axis[2], math.Abs(res.Position.Z-cam.Pos.Z))
	}
	return errs, axis, nil
}

// Fig19Localization regenerates Figure 19: the CDF of 3D localization error
// per venue.
func Fig19Localization(sc Scale) (*Experiment, error) {
	e := &Experiment{
		ID: "fig19", Title: "3D localization error CDF by venue",
		XLabel: "error (m)", YLabel: "CDF",
	}
	runs, err := getVenueRuns(sc)
	if err != nil {
		return nil, err
	}
	for _, run := range runs {
		errs, _, err := localizationErrors(run, sc)
		if err != nil {
			return nil, err
		}
		if len(errs) == 0 {
			e.Notef("%s: no successful queries", run.world.Name)
			continue
		}
		e.AddCDF(seriesName(run.world.Name), errs)
		e.Notef("%s: median %.2f m over %d queries (paper overall median 2.5 m)",
			run.world.Name, medianOf(errs), len(errs))
	}
	return e, nil
}

// Fig20AxisError regenerates Figure 20: localization error split by axis
// and venue (boxplot quartiles; the paper finds vertical error worst since
// wardriving motion is horizontal).
func Fig20AxisError(sc Scale) (*Experiment, error) {
	e := &Experiment{
		ID: "fig20", Title: "Localization error by dimension",
		XLabel: "axis (0=X, 1=Y, 2=Z)", YLabel: "error (m)",
	}
	runs, err := getVenueRuns(sc)
	if err != nil {
		return nil, err
	}
	for _, run := range runs {
		_, axis, err := localizationErrors(run, sc)
		if err != nil {
			return nil, err
		}
		name := seriesName(run.world.Name)
		for a := 0; a < 3; a++ {
			if len(axis[a]) == 0 {
				continue
			}
			e.Points = append(e.Points, Point{Series: name, X: float64(a), Y: medianOf(axis[a])})
		}
		if len(axis[0]) > 0 {
			e.Notef("%s medians: X %.2f, Y %.2f, Z %.2f m",
				name, medianOf(axis[0]), medianOf(axis[1]), medianOf(axis[2]))
		}
	}
	e.Notes = append(e.Notes,
		"note: the paper's Y axis (vertical) is this world's Y; wardriving motion is in X/Z")
	return e, nil
}

func seriesName(venue string) string {
	switch venue {
	case "office":
		return "Office Space"
	case "cafeteria":
		return "Cafeteria"
	case "grocery":
		return "Grocery Store"
	}
	return venue
}

// specFromName builds the named venue from a spec list.
func specFromName(specs []scene.VenueSpec, name string) *scene.World {
	for _, s := range specs {
		if s.Name == name {
			return scene.Build(s)
		}
	}
	return scene.Build(specs[0])
}

// walkWorld wardrives a world with the given config.
func walkWorld(w *scene.World, cfg wardrive.Config) ([]wardrive.Snapshot, error) {
	return wardrive.Walk(w, cfg)
}

// meanMapError is the mean distance between estimated and true keypoint
// positions across all snapshots.
func meanMapError(snaps []wardrive.Snapshot) float64 {
	mean, _ := wardrive.PoseError(snaps)
	return mean
}
