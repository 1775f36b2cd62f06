// Command office exercises the dead-reckoning drift problem and its ICP
// correction in the office venue: the wardriving rig's pose estimate drifts
// as the user walks, corrupting the keypoint-to-3D map; merging the depth
// snapshots with iterative closest point pulls positions back (the paper's
// "Positioning Error and Uniqueness" challenge). The example reports map
// error before and after correction, and the effect on end-to-end
// localization.
//
//	go run ./examples/office
package main

import (
	"context"
	"fmt"
	"log"

	"visualprint"
)

func main() {
	world := visualprint.NewOfficeWorld(9)

	wd := visualprint.DefaultWardriveConfig()
	wd.ImageW, wd.ImageH = 180, 135
	wd.StepMeters = 4
	wd.RowSpacing = 6
	wd.Drift.PosStddevPerMeter = 0.08 // a deliberately bad IMU

	snaps, err := visualprint.Wardrive(world, wd)
	if err != nil {
		log.Fatal(err)
	}
	before, after, err := visualprint.CorrectDrift(snaps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wardrive: %d snapshots\n", len(snaps))
	fmt.Printf("map error: %.2f m before ICP, %.2f m after\n", before, after)
	fmt.Println("(drift correction accepts only confidently-aligned snapshots;")
	fmt.Println(" in plane-dominated venues in-plane drift is unobservable to")
	fmt.Println(" point-to-point ICP, so gains are modest — see EXPERIMENTS.md)")

	// Build the cloud database from the corrected map and localize a few
	// fresh viewpoints.
	pipeline, err := visualprint.NewPipeline(world, visualprint.DefaultServerConfig())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := pipeline.Server.Ingest(context.Background(), "", visualprint.MappingsFrom(snaps)); err != nil {
		log.Fatal(err)
	}
	if pipeline.Oracle, err = pipeline.Server.VenueOracle(""); err != nil {
		log.Fatal(err)
	}

	pois := world.POIsOfKind(visualprint.POIUnique)
	trials, sum := 0, 0.0
	for i := 0; i < len(pois) && trials < 5; i++ {
		cam := visualprint.CameraFacing(world, pois[i], 3.0, 0.25, 0, 180, 135)
		res, _, err := pipeline.Localize(context.Background(), cam)
		if err != nil {
			continue
		}
		e := res.Position.Dist(cam.Pos)
		fmt.Printf("  query %d: error %.2f m (%d clustered matches)\n", trials, e, res.Matched)
		sum += e
		trials++
	}
	if trials == 0 {
		log.Fatal("no query succeeded")
	}
	fmt.Printf("mean localization error over %d queries: %.2f m\n", trials, sum/float64(trials))
}
