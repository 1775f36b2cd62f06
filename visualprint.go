// Package visualprint is a Go implementation of VisualPrint ("Low
// Bandwidth Offload for Mobile AR", CoNEXT 2016): cloud-offloaded visual
// fingerprinting that uploads only the most globally-unique image
// keypoints, cutting mobile AR offload bandwidth by an order of magnitude
// while matching whole-image accuracy.
//
// The package exposes the full system:
//
//   - Procedural indoor worlds and a camera/renderer substituting for the
//     paper's real venues and Tango hardware (NewOfficeWorld, Render).
//   - SIFT keypoint extraction (ExtractKeypoints).
//   - The uniqueness oracle — locality-sensitive counting Bloom filters —
//     that ranks keypoints by global uniqueness (Oracle, SelectUnique).
//   - Simulated wardriving with dead-reckoning drift and ICP correction
//     (Wardrive, CorrectDrift).
//   - The cloud service and its TCP client (NewServer, Connect), plus a
//     single-process Pipeline for programmatic use.
//
// See the examples directory for runnable end-to-end scenarios and
// DESIGN.md / EXPERIMENTS.md for the paper reproduction map.
package visualprint

import (
	"visualprint/internal/core"
	"visualprint/internal/icp"
	"visualprint/internal/imaging"
	"visualprint/internal/mathx"
	"visualprint/internal/pose"
	"visualprint/internal/scene"
	"visualprint/internal/server"
	"visualprint/internal/sift"
	"visualprint/internal/wardrive"
)

// Re-exported substrate types. These aliases form the public API surface of
// the internal packages; downstream code imports only this package.
type (
	// Vec3 is a 3D vector (world coordinates are meters; +Y is up).
	Vec3 = mathx.Vec3
	// World is a procedural indoor venue.
	World = scene.World
	// VenueSpec parameterizes a procedural venue.
	VenueSpec = scene.VenueSpec
	// Camera is a pinhole camera with a 6-DoF pose.
	Camera = scene.Camera
	// Frame is a rendered grayscale image with per-pixel depth.
	Frame = scene.Frame
	// POI is a point of interest in a world.
	POI = scene.POI
	// Image is a float32 grayscale image.
	Image = imaging.Gray
	// Keypoint is a detected, described SIFT feature.
	Keypoint = sift.Keypoint
	// Descriptor is a 128-byte SIFT descriptor.
	Descriptor = sift.Descriptor
	// Oracle is the uniqueness oracle (the paper's core contribution).
	Oracle = core.Oracle
	// OracleParams configures an Oracle.
	OracleParams = core.Params
	// Snapshot is one wardriving capture.
	Snapshot = wardrive.Snapshot
	// WardriveConfig controls a simulated wardriving session.
	WardriveConfig = wardrive.Config
	// Mapping is a keypoint-to-3D-position record ingested by the server.
	Mapping = server.Mapping
	// LocateResult is the server's localization answer.
	LocateResult = server.LocateResult
	// Intrinsics describes a query camera for localization.
	Intrinsics = pose.Intrinsics
	// SiftConfig tunes the keypoint detector.
	SiftConfig = sift.Config
)

// POI kinds, re-exported from the scene package.
const (
	POIUnique   = scene.POIUnique
	POIRepeated = scene.POIRepeated
	POIPlain    = scene.POIPlain
)

// NewOfficeWorld builds the paper's office evaluation venue (50 x 20 m).
func NewOfficeWorld(seed uint32) *World { return scene.BuildOffice(seed) }

// NewCafeteriaWorld builds the cafeteria venue (50 x 15 m).
func NewCafeteriaWorld(seed uint32) *World { return scene.BuildCafeteria(seed) }

// NewGroceryWorld builds the grocery venue (80 x 50 m).
func NewGroceryWorld(seed uint32) *World { return scene.BuildGrocery(seed) }

// NewGalleryWorld builds an art-gallery venue (the paper's introductory
// example: one-of-a-kind paintings over checkerboard floors).
func NewGalleryWorld(seed uint32) *World { return scene.BuildGallery(seed) }

// BuildWorld constructs a venue from an arbitrary spec.
func BuildWorld(spec VenueSpec) *World { return scene.Build(spec) }

// NewCamera returns a smartphone-like camera rendering w x h frames.
func NewCamera(w, h int) Camera { return scene.DefaultCamera(w, h) }

// CameraFacing places a camera in front of a POI, looking at it.
func CameraFacing(w *World, poi POI, dist, yawOff, pitchOff float64, imgW, imgH int) Camera {
	return scene.CameraFacing(w, poi, dist, yawOff, pitchOff, imgW, imgH)
}

// Render draws the world from cam, returning image and depth.
func Render(w *World, cam Camera) (*Frame, error) { return scene.Render(w, cam) }

// DefaultSiftConfig returns the standard SIFT parameterization.
func DefaultSiftConfig() SiftConfig { return sift.DefaultConfig() }

// ExtractKeypoints runs SIFT on an image, strongest keypoints first.
func ExtractKeypoints(img *Image, cfg SiftConfig) []Keypoint {
	return sift.Detect(img, cfg)
}

// BlurScore returns the variance-of-Laplacian sharpness of an image. The
// client pipeline discards frames scoring below a threshold ("a quick check
// on each frame to detect blur, discarding such frames") — blurred frames
// lack the features needed to match on the server.
func BlurScore(img *Image) float64 { return imaging.BlurScore(img) }

// MotionBlur synthesizes linear motion blur of the given pixel length, for
// tests and handheld-capture simulations.
func MotionBlur(img *Image, length int) *Image { return imaging.MotionBlur(img, length) }

// NewOracle creates an empty uniqueness oracle. Use DefaultOracleParams for
// the paper's 2.5M-descriptor sizing or ScaledOracleParams for simulated
// venues.
func NewOracle(p OracleParams) (*Oracle, error) { return core.New(p) }

// DefaultOracleParams is the paper's configuration (L=10, M=7, W=500, K=8;
// ~160 MB of filters sized for 2.5M descriptors).
func DefaultOracleParams() OracleParams { return core.DefaultParams() }

// ScaledOracleParams is a smaller configuration suitable for the simulated
// venues and tests (tens of thousands of descriptors).
func ScaledOracleParams() OracleParams { return core.TestParams() }

// Wardrive walks a venue with the simulated Tango rig and returns the
// captured snapshots (keypoints, 3D positions, depth clouds, drifted and
// true poses).
func Wardrive(w *World, cfg WardriveConfig) ([]Snapshot, error) {
	return wardrive.Walk(w, cfg)
}

// DefaultWardriveConfig returns a wardriving configuration for the
// simulated venues.
func DefaultWardriveConfig() WardriveConfig { return wardrive.DefaultConfig() }

// CorrectDrift merges the snapshots' depth clouds with ICP and applies the
// resulting corrections to every keypoint observation, mutating snaps in
// place — the paper's drift post-processing. It returns the mean keypoint
// position error before and after correction.
func CorrectDrift(snaps []Snapshot) (before, after float64, err error) {
	clouds := make([][]Vec3, len(snaps))
	for i := range snaps {
		clouds[i] = snaps[i].Cloud
	}
	tfs, err := icp.CorrectSequence(clouds, icp.DefaultOptions())
	if err != nil {
		return 0, 0, err
	}
	before, _ = wardrive.PoseError(snaps)
	for i := range snaps {
		tf := tfs[i]
		for j := range snaps[i].Obs {
			snaps[i].Obs[j].Est = tf.Apply(snaps[i].Obs[j].Est)
		}
		snaps[i].Cloud = tf.ApplyAll(snaps[i].Cloud)
	}
	after, _ = wardrive.PoseError(snaps)
	return before, after, nil
}

// MappingsFrom flattens snapshots into server-ingestible mappings using the
// (possibly drift-corrected) estimated positions.
func MappingsFrom(snaps []Snapshot) []Mapping {
	var ms []Mapping
	for i := range snaps {
		for _, o := range snaps[i].Obs {
			m := Mapping{Pos: o.Est}
			copy(m.Desc[:], o.Keypoint.Desc[:])
			ms = append(ms, m)
		}
	}
	return ms
}

// IntrinsicsOf extracts localization intrinsics from a camera.
func IntrinsicsOf(cam Camera) Intrinsics {
	return Intrinsics{W: cam.W, H: cam.H, FovX: cam.FovX, FovY: cam.FovY()}
}
