// Command gallery demonstrates the uniqueness oracle on the paper's
// motivating scenario: an art gallery where one-of-a-kind paintings coexist
// with checkerboard floors and fixtures repeated in every room. It shows
// how the oracle separates globally-unique keypoints (worth uploading) from
// repeated ones (discarded), and the bandwidth this saves versus shipping
// whole frames or all keypoints.
//
//	go run ./examples/gallery
package main

import (
	"fmt"
	"log"

	"visualprint"
)

func main() {
	world := visualprint.NewGalleryWorld(3)
	pipeline, err := visualprint.NewPipeline(world, visualprint.DefaultServerConfig())
	if err != nil {
		log.Fatal(err)
	}
	wd := visualprint.DefaultWardriveConfig()
	wd.ImageW, wd.ImageH = 200, 150
	if _, err := pipeline.Wardrive(wd, false); err != nil {
		log.Fatal(err)
	}
	oracle := pipeline.Oracle

	// Photograph a unique painting and a repeated-tile floor area, and
	// compare the oracle's uniqueness scores for their keypoints.
	sc := visualprint.DefaultSiftConfig()
	scoreView := func(poi visualprint.POI) (median uint32, kps []visualprint.Keypoint) {
		cam := visualprint.CameraFacing(world, poi, 2.5, 0.1, 0, 200, 150)
		fr, err := visualprint.Render(world, cam)
		if err != nil {
			log.Fatal(err)
		}
		kps = visualprint.ExtractKeypoints(fr.Image, sc)
		var scores []uint32
		for i := range kps {
			u, err := oracle.Uniqueness(kps[i].Desc[:])
			if err != nil {
				log.Fatal(err)
			}
			scores = append(scores, u)
		}
		if len(scores) == 0 {
			return 0, kps
		}
		// median
		for i := 1; i < len(scores); i++ {
			for j := i; j > 0 && scores[j] < scores[j-1]; j-- {
				scores[j], scores[j-1] = scores[j-1], scores[j]
			}
		}
		return scores[len(scores)/2], kps
	}

	paintings := world.POIsOfKind(visualprint.POIUnique)
	floors := world.POIsOfKind(visualprint.POIPlain)
	pm, pk := scoreView(paintings[0])
	fm, fk := scoreView(floors[0])
	fmt.Println("oracle uniqueness scores (lower = more unique = worth uploading):")
	fmt.Printf("  painting view: %4d keypoints, median global count %d\n", len(pk), pm)
	fmt.Printf("  floor view:    %4d keypoints, median global count %d\n", len(fk), fm)

	// Bandwidth comparison for one query frame of the painting.
	cam := visualprint.CameraFacing(world, paintings[0], 2.5, 0.1, 0, 200, 150)
	fr, err := visualprint.Render(world, cam)
	if err != nil {
		log.Fatal(err)
	}
	kps := visualprint.ExtractKeypoints(fr.Image, sc)
	png, _ := visualprint.EncodeFrame(fr.Image, visualprint.EncodingPNG, 0)
	allKp := visualprint.MarshalKeypoints(kps)
	sel, err := oracle.SelectUnique(kps, 200)
	if err != nil {
		log.Fatal(err)
	}
	fp := visualprint.MarshalKeypoints(sel)
	// The fingerprint size is resolution-independent (a fixed number of
	// keypoints); the frame grows with the sensor. Scale the frame to a
	// 1080p-equivalent, as a phone camera would produce.
	hiRes := float64(1920*1080) / float64(cam.W*cam.H)
	frameKB := float64(len(png)) * hiRes / 1024
	fmt.Println("\nper-query upload for this frame (1080p-equivalent camera):")
	fmt.Printf("  whole frame (PNG):        %7.1f KB\n", frameKB)
	fmt.Printf("  all %4d keypoints:       %7.1f KB (scales with resolution too)\n",
		len(kps), float64(len(allKp))*hiRes/1024)
	fmt.Printf("  VisualPrint fingerprint:  %7.1f KB (%d most-unique keypoints)\n",
		float64(len(fp))/1024, len(sel))
	if len(fp) > 0 {
		fmt.Printf("  reduction vs whole frame: %.1fx\n", frameKB/(float64(len(fp))/1024))
	}
}
