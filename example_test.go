package visualprint_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"visualprint"
)

// ExampleNewPipeline shows the single-process end-to-end flow: build a
// venue, wardrive it, localize a photograph using only the most-unique
// keypoints.
func ExampleNewPipeline() {
	world := visualprint.NewGalleryWorld(7)
	pipeline, err := visualprint.NewPipeline(world, visualprint.DefaultServerConfig())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := pipeline.Wardrive(visualprint.DefaultWardriveConfig(), true); err != nil {
		log.Fatal(err)
	}
	poi := world.POIsOfKind(visualprint.POIUnique)[0]
	cam := visualprint.CameraFacing(world, poi, 3, 0.2, 0, 240, 180)
	res, stats, err := pipeline.Localize(context.Background(), cam)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uploaded %d keypoints (%d bytes), position error %.1fm\n",
		stats.UploadedKeypoints, stats.UploadBytes, res.Position.Dist(cam.Pos))
}

// ExampleOracle_SelectUnique shows direct use of the uniqueness oracle: a
// repeated "door knob" descriptor ranks below one-of-a-kind descriptors.
func ExampleOracle_SelectUnique() {
	oracle, err := visualprint.NewOracle(visualprint.ScaledOracleParams())
	if err != nil {
		log.Fatal(err)
	}
	doorKnob := make([]byte, 128)
	doorKnob[10] = 200
	for i := 0; i < 100; i++ { // the same fixture seen in every room
		oracle.Insert(doorKnob)
	}
	painting := make([]byte, 128)
	painting[90] = 180
	oracle.Insert(painting) // seen exactly once

	common, _ := oracle.Uniqueness(doorKnob)
	rare, _ := oracle.Uniqueness(painting)
	fmt.Println(common > rare)
	// Output: true
}

// ExampleServer shows the networked deployment: a server, a wardriving
// uploader, and a querying client over TCP.
func ExampleServer() {
	srv, err := visualprint.NewServer(visualprint.DefaultServerConfig())
	if err != nil {
		log.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	client, err := visualprint.Connect(addr.String())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// Wardriving side: ingest keypoint-to-3D mappings.
	ms := make([]visualprint.Mapping, 3)
	for i := range ms {
		ms[i].Desc[0] = byte(i)
	}
	total, err := client.Ingest(context.Background(), ms)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(total)
	// Output: 3
}

// ExampleLink_SustainableFPS reproduces Figure 2's core computation: how
// many frames per second an uplink sustains at a given encoded size.
func ExampleLink_SustainableFPS() {
	lte := visualprint.Link{UplinkMbps: 2, RTT: 40 * time.Millisecond}
	h264Frame := int64(25_000) // ~25 KB per 1080p H.264 frame
	fmt.Printf("%.0f\n", lte.SustainableFPS(h264Frame))
	// Output: 10
}
