package bench

import (
	"fmt"
	"time"

	"visualprint/internal/codec"
	"visualprint/internal/netsim"
	"visualprint/internal/scene"
	"visualprint/internal/server"
	"visualprint/internal/sift"
)

// Fig02EncodingFPS regenerates Figure 2: sustainable frames per second
// against uplink bandwidth, per frame encoding (log-log in the paper).
// Frame sizes are measured on rendered venue frames using the real stdlib
// PNG/JPEG encoders; H.264 uses the calibrated rate model.
func Fig02EncodingFPS(sc Scale) (*Experiment, error) {
	e := &Experiment{
		ID: "fig02", Title: "Uplink bandwidth vs sustainable FPS by encoding",
		XLabel: "uplink (Mbps)", YLabel: "average FPS",
	}
	// Average encoded sizes over a handful of venue frames.
	specs := venueSpecs(sc)
	w := scene.Build(specs[0])
	pois := w.POIsOfKind(scene.POIUnique)
	if len(pois) < 3 {
		return nil, fmt.Errorf("bench: venue has %d unique POIs", len(pois))
	}
	sizes := map[codec.Encoding]int64{}
	encodings := []codec.Encoding{codec.EncodingH264, codec.EncodingJPEG, codec.EncodingPNG, codec.EncodingRAW}
	frames := 0
	for i := 0; i < 3; i++ {
		cam := scene.CameraFacing(w, pois[i], 3, 0.2, 0, sc.ImgW, sc.ImgH)
		fr, err := scene.Render(w, cam)
		if err != nil {
			return nil, err
		}
		frames++
		for _, enc := range encodings {
			data, err := codec.EncodeFrame(fr.Image, enc, 0)
			if err != nil {
				return nil, err
			}
			sizes[enc] += int64(len(data))
		}
	}
	// The paper streams high-resolution camera frames; scale measured
	// sizes from the render resolution to 1080p by pixel count (exact for
	// RAW and the H264 rate model; compression ratios are approximately
	// resolution-independent for PNG/JPEG).
	hiRes := float64(1920*1080) / float64(sc.ImgW*sc.ImgH)
	uplinks := []float64{1, 2, 4, 8, 16, 32}
	for _, enc := range encodings {
		avg := int64(float64(sizes[enc]/int64(frames)) * hiRes)
		e.Notef("%s: %.1f KB per 1080p-equivalent frame", enc, float64(avg)/1024)
		for _, mbps := range uplinks {
			l := netsim.Link{UplinkMbps: mbps}
			e.Points = append(e.Points, Point{Series: enc.String(), X: mbps, Y: l.SustainableFPS(avg)})
		}
	}
	e.Notef("calibration: H264 at 2 Mbps sustains ~10 FPS (the paper's Figure 2 anchor)")
	return e, nil
}

// Fig03KeypointCDF regenerates Figure 3: the CDF of usable SIFT keypoints
// per frame under PNG (lossless) versus JPEG at the Figure 2 compression
// regime. As documented in DESIGN.md, on synthetic textures the paper's
// raw-count degradation manifests as a loss of *match-stable* keypoints
// (keypoints surviving compression with a matching descriptor), which is
// the quantity plotted here.
func Fig03KeypointCDF(sc Scale) (*Experiment, error) {
	e := &Experiment{
		ID: "fig03", Title: "Keypoint count CDF, PNG vs JPEG",
		XLabel: "usable keypoint count", YLabel: "CDF",
	}
	c, err := GetCorpus(sc)
	if err != nil {
		return nil, err
	}
	cfg := sift.DefaultConfig()
	cfg.ContrastThreshold = 0.01
	var pngCounts, jpegCounts []float64
	n := sc.Scenes
	if n > 25 {
		n = 25 // cap the recompression workload
	}
	for id := 0; id < n; id++ {
		cam := c.SceneCams[id]
		w := worldOf(c, cam)
		fr, err := scene.Render(w, cam)
		if err != nil {
			return nil, err
		}
		base := sift.Detect(fr.Image, cfg)
		count := func(enc codec.Encoding, quality int) (int, error) {
			data, err := codec.EncodeFrame(fr.Image, enc, quality)
			if err != nil {
				return 0, err
			}
			dec, err := codec.DecodeFrame(data, enc)
			if err != nil {
				return 0, err
			}
			kps := sift.Detect(dec, cfg)
			return stableCount(base, kps), nil
		}
		pc, err := count(codec.EncodingPNG, 0)
		if err != nil {
			return nil, err
		}
		jc, err := count(codec.EncodingJPEG, 10)
		if err != nil {
			return nil, err
		}
		pngCounts = append(pngCounts, float64(pc))
		jpegCounts = append(jpegCounts, float64(jc))
	}
	e.AddCDF("PNG", pngCounts)
	e.AddCDF("JPEG", jpegCounts)
	e.Notef("metric: match-stable keypoints (see DESIGN.md substitution table)")
	return e, nil
}

// stableCount counts keypoints in kps with a geometric + descriptor match
// in base.
func stableCount(base, kps []sift.Keypoint) int {
	n := 0
	for i := range kps {
		for j := range base {
			dx, dy := kps[i].X-base[j].X, kps[i].Y-base[j].Y
			if dx*dx+dy*dy < 9 && kps[i].Desc.DistSq(&base[j].Desc) < 40000 {
				n++
				break
			}
		}
	}
	return n
}

// worldOf finds which corpus world a camera lies in (by bounds).
func worldOf(c *Corpus, cam scene.Camera) *scene.World {
	for _, w := range c.Worlds {
		if cam.Pos.X >= w.Min.X && cam.Pos.X <= w.Max.X &&
			cam.Pos.Z >= w.Min.Z && cam.Pos.Z <= w.Max.Z {
			return w
		}
	}
	return c.Worlds[0]
}

// Fig05FeatureRatio regenerates Figure 5: the CDF of the ratio of
// serialized SIFT feature size to compressed image size, raw and after
// GZIP. The paper's point — shipping all keypoints saves nothing over
// shipping the frame — should hold.
func Fig05FeatureRatio(sc Scale) (*Experiment, error) {
	e := &Experiment{
		ID: "fig05", Title: "Feature-size / image-size ratio CDF",
		XLabel: "features bytes / image bytes", YLabel: "CDF",
	}
	c, err := GetCorpus(sc)
	if err != nil {
		return nil, err
	}
	var raw, zipped []float64
	n := sc.Scenes
	if n > 30 {
		n = 30
	}
	for id := 0; id < n; id++ {
		cam := c.SceneCams[id]
		w := worldOf(c, cam)
		fr, err := scene.Render(w, cam)
		if err != nil {
			return nil, err
		}
		cfg := sift.DefaultConfig()
		cfg.ContrastThreshold = 0.01 // dense extraction, as high-res photos yield
		kps := sift.Detect(fr.Image, cfg)
		if len(kps) == 0 {
			continue
		}
		img, err := codec.EncodeFrame(fr.Image, codec.EncodingPNG, 0)
		if err != nil {
			return nil, err
		}
		feats := codec.MarshalKeypoints(kps)
		z, err := codec.Gzip(feats)
		if err != nil {
			return nil, err
		}
		raw = append(raw, float64(len(feats))/float64(len(img)))
		zipped = append(zipped, float64(len(z))/float64(len(img)))
	}
	e.AddCDF("Uncompressed", raw)
	e.AddCDF("Compressed (GZIP)", zipped)
	return e, nil
}

// Fig14UploadTrace regenerates Figure 14: cumulative data uploaded over a
// 70-second continuous session, VisualPrint fingerprints versus whole
// frames, over the same link.
func Fig14UploadTrace(sc Scale) (*Experiment, error) {
	e := &Experiment{
		ID: "fig14", Title: "Cumulative upload over time",
		XLabel: "time (s)", YLabel: "data sent (MB)",
	}
	c, err := GetCorpus(sc)
	if err != nil {
		return nil, err
	}
	// Per-query payloads measured from the corpus: a 200-keypoint
	// fingerprint versus the PNG frame.
	cam := c.SceneCams[0]
	w := worldOf(c, cam)
	fr, err := scene.Render(w, cam)
	if err != nil {
		return nil, err
	}
	frame, err := codec.EncodeFrame(fr.Image, codec.EncodingPNG, 0)
	if err != nil {
		return nil, err
	}
	// Whole-frame offload ships camera-resolution frames; scale the
	// measured PNG size to a 1080p-equivalent (as in Figure 2). The
	// fingerprint, by contrast, is resolution-independent: 200 keypoints
	// regardless of sensor size.
	frameBytes := int64(float64(len(frame)) * float64(1920*1080) / float64(sc.ImgW*sc.ImgH))
	fpBytes := server.QueryUploadBytes(200)
	e.Notef("per query: VisualPrint %.1f KB, whole frame %.1f KB (paper: 51.2 vs 523)",
		float64(fpBytes)/1024, float64(frameBytes)/1024)

	link := netsim.Link{UplinkMbps: 6, RTT: 40 * time.Millisecond}
	duration := 70 * time.Second
	vp, err := netsim.Trace(link, duration, time.Second, func(int) int64 { return fpBytes })
	if err != nil {
		return nil, err
	}
	fu, err := netsim.Trace(link, duration, time.Second, func(int) int64 { return frameBytes })
	if err != nil {
		return nil, err
	}
	for _, ev := range vp {
		e.Points = append(e.Points, Point{Series: "VisualPrint", X: ev.At.Seconds(), Y: float64(ev.Cumulative) / 1e6})
	}
	for _, ev := range fu {
		e.Points = append(e.Points, Point{Series: "Frame Upload", X: ev.At.Seconds(), Y: float64(ev.Cumulative) / 1e6})
	}
	ratio := float64(fu[len(fu)-1].Cumulative) / float64(vp[len(vp)-1].Cumulative)
	e.Notef("session total ratio: %.1fx (paper: ~10x)", ratio)
	return e, nil
}

// ExtraLatencyTail is an extension experiment beyond the paper's figures:
// it quantifies the introduction's motivating claim that "wireless network
// latencies between the phone and cloud are unpredictable" hurts whole-
// frame offload far more than fingerprint offload. Both payloads ride the
// same Gilbert-Elliott variable channel; the CDFs of per-query upload
// completion time show the frame upload's heavy tail.
func ExtraLatencyTail(sc Scale) (*Experiment, error) {
	e := &Experiment{
		ID: "extra-latency", Title: "Per-query upload latency CDF on a variable channel",
		XLabel: "latency (s)", YLabel: "CDF",
	}
	v := netsim.VariableLink{
		Good:            netsim.Link{UplinkMbps: 6, RTT: 40 * time.Millisecond},
		BadRateFraction: 0.08,
		BadRTT:          400 * time.Millisecond,
		MeanGood:        4 * time.Second,
		MeanBad:         time.Second,
		Seed:            11,
	}
	const dur = 180 * time.Second
	const samples = 600
	fp, err := v.TransferTimes(server.QueryUploadBytes(200), dur, samples)
	if err != nil {
		return nil, err
	}
	frame, err := v.TransferTimes(910_000, dur, samples) // 1080p PNG equivalent
	if err != nil {
		return nil, err
	}
	toSecs := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = d.Seconds()
		}
		return out
	}
	e.AddCDF("VisualPrint (200 kp)", toSecs(fp))
	e.AddCDF("Frame Upload (PNG)", toSecs(frame))
	e.Notef("medians: fingerprint %.2f s, frame %.2f s; tails diverge much further",
		e.MedianOf("VisualPrint (200 kp)"), e.MedianOf("Frame Upload (PNG)"))
	_ = sc
	return e, nil
}
