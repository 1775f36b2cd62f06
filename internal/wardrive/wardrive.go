// Package wardrive simulates the paper's Google-Tango wardriving phase: a
// user walks through a venue while the device captures RGB frames, depth
// maps and a 6-DoF pose estimate, from which every image keypoint is
// backprojected to a 3D position. Two realities of the hardware are
// modeled: the depth sensor (taken from the renderer's true depth, as an IR
// sensor measures device-relative range) and the VSLAM dead-reckoning
// *drift* that accumulates as the user walks — the paper's "positioning
// error and uniqueness" challenge, which internal/icp later corrects.
package wardrive

import (
	"errors"
	"math"
	"math/rand"

	"visualprint/internal/icp"
	"visualprint/internal/mathx"
	"visualprint/internal/scene"
	"visualprint/internal/sift"
)

// DriftModel parameterizes dead-reckoning error accumulation. Bias
// performs a random walk: after each meter walked, the position bias gains
// zero-mean Gaussian steps of the given standard deviations.
type DriftModel struct {
	PosStddevPerMeter float64 // horizontal position drift (m per sqrt-meter walked)
	YStddevPerMeter   float64 // vertical drift (usually much smaller)
	YawStddevPerMeter float64 // heading drift (radians per sqrt-meter walked)
	Seed              int64
}

// DefaultDrift returns a drift model producing roughly 0.5–1.5 m of
// accumulated error over a 100 m walk, consistent with the paper's
// observation that Tango drift is small but harmful to uniqueness tracking.
func DefaultDrift() DriftModel {
	return DriftModel{PosStddevPerMeter: 0.05, YStddevPerMeter: 0.01, YawStddevPerMeter: 0.002, Seed: 1}
}

// Observation is one wardriven keypoint: its descriptor plus the 3D
// position estimated via the (drifted) pose and the ground-truth position
// via the true pose.
type Observation struct {
	Keypoint sift.Keypoint
	Est      mathx.Vec3 // backprojected with the drifted pose estimate
	True     mathx.Vec3 // backprojected with the true pose
}

// Snapshot is one capture along the walk.
type Snapshot struct {
	TrueCam scene.Camera // actual pose
	EstCam  scene.Camera // pose as estimated by drifting dead reckoning
	Obs     []Observation
	// Cloud is a subsampled depth point cloud in estimated coordinates;
	// TrueCloud the same pixels in true coordinates. ICP uses these to
	// stitch snapshots into one coherent map.
	Cloud     []mathx.Vec3
	TrueCloud []mathx.Vec3
}

// The walk's fixed shape: the camera rides eyeHeight above the floor, and
// the POI sweep captures every point of interest from each of
// sweepDistances, the i-th at a yaw offset of sweepYawOffsets[i].
const eyeHeight = 1.6

var (
	sweepDistances  = [...]float64{2, 3.5}
	sweepYawOffsets = [...]float64{-0.25, 0.15}
)

// Config controls a wardriving session.
type Config struct {
	ImageW, ImageH int
	// StepMeters is the distance between captures along the walk.
	StepMeters float64
	// RowSpacing is the spacing between lawnmower rows (meters).
	RowSpacing float64
	// MaxKeypointsPerFrame caps SIFT output per capture (0 = no cap).
	MaxKeypointsPerFrame int
	// CloudStride subsamples the depth map every n pixels for the ICP
	// cloud (0 disables cloud capture).
	CloudStride int
	// Drift models dead-reckoning error; zero model means perfect poses.
	Drift DriftModel
	// SweepPOIs adds, after the lawnmower pass, close-up captures of every
	// point of interest from several distances and angles — the natural
	// behaviour of a human wardriver pointing the device at the things
	// worth fingerprinting. It densifies scale/viewpoint coverage of the
	// map, which the localization accuracy depends on.
	SweepPOIs bool
}

// DefaultConfig returns a config suitable for the scaled evaluation worlds.
func DefaultConfig() Config {
	return Config{
		ImageW: 240, ImageH: 180,
		StepMeters:           3,
		RowSpacing:           5,
		MaxKeypointsPerFrame: 400,
		CloudStride:          12,
		Drift:                DefaultDrift(),
		SweepPOIs:            true,
	}
}

// Walk performs a lawnmower wardrive of the world: rows along X spaced by
// RowSpacing along Z, capturing a left- and a right-facing view at every
// step. It returns the snapshots in capture order (drift accumulates along
// the sequence).
func Walk(w *scene.World, cfg Config) ([]Snapshot, error) {
	if cfg.ImageW <= 0 || cfg.ImageH <= 0 {
		return nil, errors.New("wardrive: image dimensions must be positive")
	}
	if cfg.StepMeters <= 0 || cfg.RowSpacing <= 0 {
		return nil, errors.New("wardrive: StepMeters and RowSpacing must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Drift.Seed*2654435761 + 97))
	var snaps []Snapshot

	var posBias mathx.Vec3
	var yawBias float64
	advanceDrift := func(meters float64) {
		s := math.Sqrt(meters)
		posBias.X += rng.NormFloat64() * cfg.Drift.PosStddevPerMeter * s
		posBias.Z += rng.NormFloat64() * cfg.Drift.PosStddevPerMeter * s
		posBias.Y += rng.NormFloat64() * cfg.Drift.YStddevPerMeter * s
		yawBias += rng.NormFloat64() * cfg.Drift.YawStddevPerMeter * s
	}

	marginX := 0.08 * (w.Max.X - w.Min.X)
	marginZ := 0.1 * (w.Max.Z - w.Min.Z)
	dir := 1.0
	for z := w.Min.Z + marginZ; z <= w.Max.Z-marginZ+1e-9; z += cfg.RowSpacing {
		startX, endX := w.Min.X+marginX, w.Max.X-marginX
		if dir < 0 {
			startX, endX = endX, startX
		}
		for x := startX; ; x += dir * cfg.StepMeters {
			if (dir > 0 && x > endX) || (dir < 0 && x < endX) {
				break
			}
			advanceDrift(cfg.StepMeters)
			pos := mathx.Vec3{X: x, Y: eyeHeight, Z: z}
			// Two views per step: facing +Z and -Z (left/right of the
			// walking direction), with a touch of pitch variation.
			for view, yaw := range []float64{0, math.Pi} {
				trueCam := scene.DefaultCamera(cfg.ImageW, cfg.ImageH)
				trueCam.Pos = pos
				trueCam.Yaw = yaw
				trueCam.Pitch = 0.05 * math.Sin(x+z+float64(view))
				snap, err := Capture(w, trueCam, cfg, posBias, yawBias)
				if err != nil {
					return nil, err
				}
				snaps = append(snaps, *snap)
			}
		}
		dir = -dir
	}
	if cfg.SweepPOIs {
		for _, poi := range w.POIs {
			for i, d := range sweepDistances {
				advanceDrift(d) // walking between capture spots drifts too
				trueCam := scene.CameraFacing(w, poi, d, sweepYawOffsets[i], 0, cfg.ImageW, cfg.ImageH)
				snap, err := Capture(w, trueCam, cfg, posBias, yawBias)
				if err != nil {
					return nil, err
				}
				snaps = append(snaps, *snap)
			}
		}
	}
	if len(snaps) == 0 {
		return nil, errors.New("wardrive: world too small for the configured walk")
	}
	return snaps, nil
}

// Capture renders one snapshot from trueCam, applying the given accumulated
// pose bias to form the estimated camera, and backprojects keypoints and
// the depth cloud with both poses.
func Capture(w *scene.World, trueCam scene.Camera, cfg Config, posBias mathx.Vec3, yawBias float64) (*Snapshot, error) {
	fr, err := scene.Render(w, trueCam)
	if err != nil {
		return nil, err
	}
	estCam := trueCam
	estCam.Pos = trueCam.Pos.Add(posBias)
	estCam.Yaw = trueCam.Yaw + yawBias

	sc := sift.DefaultConfig()
	sc.MaxKeypoints = cfg.MaxKeypointsPerFrame
	kps := sift.Detect(fr.Image, sc)

	snap := &Snapshot{TrueCam: trueCam, EstCam: estCam}
	for _, kp := range kps {
		d := fr.DepthAt(int(kp.X), int(kp.Y))
		if d <= 0 {
			continue
		}
		snap.Obs = append(snap.Obs, Observation{
			Keypoint: kp,
			Est:      estCam.PointAt(kp.X, kp.Y, d),
			True:     trueCam.PointAt(kp.X, kp.Y, d),
		})
	}
	if cfg.CloudStride > 0 {
		for y := cfg.CloudStride / 2; y < cfg.ImageH; y += cfg.CloudStride {
			for x := cfg.CloudStride / 2; x < cfg.ImageW; x += cfg.CloudStride {
				d := fr.DepthAt(x, y)
				if d <= 0 {
					continue
				}
				px, py := float64(x)+0.5, float64(y)+0.5
				snap.Cloud = append(snap.Cloud, estCam.PointAt(px, py, d))
				snap.TrueCloud = append(snap.TrueCloud, trueCam.PointAt(px, py, d))
			}
		}
	}
	return snap, nil
}

// Observations flattens the keypoint observations of all snapshots.
func Observations(snaps []Snapshot) []Observation {
	var out []Observation
	for i := range snaps {
		out = append(out, snaps[i].Obs...)
	}
	return out
}

// CorrectDrift merges the snapshots' depth clouds with ICP and applies the
// resulting corrections to every keypoint observation and cloud, mutating
// snaps in place — the paper's drift post-processing. It returns the mean
// keypoint position error before and after correction.
func CorrectDrift(snaps []Snapshot) (before, after float64, err error) {
	clouds := make([][]mathx.Vec3, len(snaps))
	for i := range snaps {
		clouds[i] = snaps[i].Cloud
	}
	tfs, err := icp.CorrectSequence(clouds, icp.DefaultOptions())
	if err != nil {
		return 0, 0, err
	}
	before, _ = PoseError(snaps)
	for i := range snaps {
		tf := tfs[i]
		for j := range snaps[i].Obs {
			snaps[i].Obs[j].Est = tf.Apply(snaps[i].Obs[j].Est)
		}
		snaps[i].Cloud = tf.ApplyAll(snaps[i].Cloud)
	}
	after, _ = PoseError(snaps)
	return before, after, nil
}

// PoseError summarizes the drift of a wardriving session: the mean and max
// distance between estimated and true keypoint positions.
func PoseError(snaps []Snapshot) (mean, max float64) {
	n := 0
	for i := range snaps {
		for _, o := range snaps[i].Obs {
			d := o.Est.Dist(o.True)
			mean += d
			if d > max {
				max = d
			}
			n++
		}
	}
	if n > 0 {
		mean /= float64(n)
	}
	return mean, max
}
