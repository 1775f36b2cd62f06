// Command quickstart is the minimal end-to-end VisualPrint flow: build a
// venue, wardrive it, then localize a camera from a photograph using only
// the most-unique keypoints.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"visualprint"
)

func main() {
	// 1. A venue to fingerprint. The gallery preset is the paper's
	// introductory example: one-of-a-kind paintings over tiled floors.
	world := visualprint.NewGalleryWorld(7)
	fmt.Printf("venue %q: %d surfaces, %d points of interest\n",
		world.Name, len(world.Surfaces), len(world.POIs))

	// 2. Wardrive it (the simulated Tango walk) and ingest into the cloud
	// database. The pipeline wires world, server and oracle together.
	pipeline, err := visualprint.NewPipeline(world, visualprint.DefaultServerConfig())
	if err != nil {
		log.Fatal(err)
	}
	wd := visualprint.DefaultWardriveConfig()
	wd.ImageW, wd.ImageH = 200, 150
	n, err := pipeline.Wardrive(wd, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wardrive complete: %d keypoint-to-3D mappings ingested\n", n)
	fmt.Printf("oracle footprint: %.1f MB in RAM\n",
		float64(pipeline.Oracle.MemoryBytes())/1e6)

	// 3. A user photographs a painting from a new viewpoint.
	pois := world.POIsOfKind(visualprint.POIUnique)
	cam := visualprint.CameraFacing(world, pois[2], 3.0, 0.3, -0.05, 200, 150)

	res, stats, err := pipeline.Localize(context.Background(), cam)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query: %d keypoints extracted, %d uploaded (%.1f KB on the wire)\n",
		stats.ExtractedKeypoints, stats.UploadedKeypoints, float64(stats.UploadBytes)/1024)
	fmt.Printf("estimated position: (%.2f, %.2f, %.2f)\n",
		res.Position.X, res.Position.Y, res.Position.Z)
	fmt.Printf("true position:      (%.2f, %.2f, %.2f)\n",
		cam.Pos.X, cam.Pos.Y, cam.Pos.Z)
	fmt.Printf("localization error: %.2f m (%d matches after clustering)\n",
		res.Position.Dist(cam.Pos), res.Matched)
}
