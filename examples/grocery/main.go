// Command grocery simulates a continuous mobile-AR session in the grocery
// venue: a shopper streams queries while walking the aisles. It compares
// the cumulative uplink traffic of the VisualPrint fingerprint stream
// against conventional whole-frame offload over the same LTE-class link —
// the Figure 14 scenario — and prints the power budget of both
// configurations.
//
//	go run ./examples/grocery
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"visualprint"
)

func main() {
	world := visualprint.NewGroceryWorld(5)
	pipeline, err := visualprint.NewPipeline(world, visualprint.DefaultServerConfig())
	if err != nil {
		log.Fatal(err)
	}
	wd := visualprint.DefaultWardriveConfig()
	wd.ImageW, wd.ImageH = 180, 135
	wd.StepMeters = 5
	wd.RowSpacing = 8
	n, err := pipeline.Wardrive(wd, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grocery store wardriven: %d mappings\n", n)

	// Measure one representative query of each kind.
	pois := world.POIsOfKind(visualprint.POIUnique)
	cam := visualprint.CameraFacing(world, pois[0], 3.5, 0.2, 0, 180, 135)
	fr, err := visualprint.Render(world, cam)
	if err != nil {
		log.Fatal(err)
	}
	framePNG, _ := visualprint.EncodeFrame(fr.Image, visualprint.EncodingPNG, 0)
	_, stats, err := pipeline.LocalizeFrame(context.Background(), fr)
	if err != nil {
		log.Fatal(err)
	}
	// The fingerprint is resolution-independent; the frame scales with the
	// camera sensor. Compare against a 1080p-equivalent frame.
	frameBytes := int64(float64(len(framePNG)) * float64(1920*1080) / float64(fr.Cam.W*fr.Cam.H))
	fmt.Printf("per query: fingerprint %.1f KB vs whole frame %.1f KB (1080p-equivalent)\n",
		float64(stats.UploadBytes)/1024, float64(frameBytes)/1024)

	// Continuous session over an LTE-class uplink: 1 query per second for
	// 70 seconds (the paper's Figure 14 window).
	link := visualprint.Link{UplinkMbps: 6, RTT: 40 * time.Millisecond}
	duration := 70 * time.Second
	vpTrace, err := visualprint.TraceUploads(link, duration, time.Second,
		func(int) int64 { return stats.UploadBytes })
	if err != nil {
		log.Fatal(err)
	}
	frameTrace, err := visualprint.TraceUploads(link, duration, time.Second,
		func(int) int64 { return frameBytes })
	if err != nil {
		log.Fatal(err)
	}
	vpTotal := vpTrace[len(vpTrace)-1].Cumulative
	frTotal := frameTrace[len(frameTrace)-1].Cumulative
	fmt.Printf("70 s session: VisualPrint %.2f MB, whole frames %.2f MB (%.1fx saving)\n",
		float64(vpTotal)/1e6, float64(frTotal)/1e6, float64(frTotal)/float64(vpTotal))

	// Realtime capture loop: 30 FPS camera, SIFT-bound processing, stale
	// frames dropped, occasional motion blur rejected before any work.
	sess, err := visualprint.RunSession(visualprint.SessionConfig{
		FPS:          30,
		Duration:     duration,
		ExtractTime:  80 * time.Millisecond,
		FilterTime:   5 * time.Millisecond,
		UploadBytes:  stats.UploadBytes,
		Link:         link,
		BlurredFrame: func(i int) bool { return i%20 < 3 }, // motion bursts
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("capture loop: %d frames -> %d processed, %d stale, %d blurred (%.1f queries/s, freshness %v)\n",
		len(sess.Frames), sess.Processed, sess.Stale, sess.Blurred,
		sess.EffectiveQPS, sess.MeanFreshness.Round(time.Millisecond))

	// Power budget of both configurations (Figure 18's model).
	pm := visualprint.DefaultPowerModel()
	vpW, err := pm.Average(visualprint.PowerVisualPrintFull())
	if err != nil {
		log.Fatal(err)
	}
	frW, _ := pm.Average(visualprint.PowerFrameOffload())
	fmt.Printf("power: VisualPrint %.1f W vs frame offload %.1f W "+
		"(compute dominates; see the paper's limitations section)\n", vpW, frW)
}
