package bench

import (
	"runtime"
	"time"

	"visualprint/internal/bloom"
	"visualprint/internal/core"
	"visualprint/internal/power"
	"visualprint/internal/scene"
	"visualprint/internal/sift"
)

// oracleGzip serializes an oracle gzip-compressed.
func oracleGzip(o *core.Oracle) ([]byte, error) {
	return bloom.GzipBytes(o)
}

// Fig16Latency regenerates Figure 16: the CDF of client compute latency,
// SIFT extraction versus the oracle filtering step (Bloom lookups +
// sorting). The paper's point — filtering costs an order of magnitude less
// than extraction — should hold regardless of host CPU.
func Fig16Latency(sc Scale) (*Experiment, error) {
	e := &Experiment{
		ID: "fig16", Title: "Client compute latency CDF",
		XLabel: "latency (ms)", YLabel: "CDF",
	}
	c, err := GetCorpus(sc)
	if err != nil {
		return nil, err
	}
	// Train an oracle on the corpus, as the client would have downloaded.
	oracle, err := core.New(core.TestParams())
	if err != nil {
		return nil, err
	}
	for _, d := range c.DB.Descs {
		if err := oracle.Insert(d); err != nil {
			return nil, err
		}
	}
	cfg := siftConfig()
	var siftMs, filterMs []float64
	frames := 0
	for id := 0; id < sc.Scenes && frames < 30; id++ {
		cam := c.SceneCams[id]
		w := worldOf(c, cam)
		fr, err := scene.Render(w, cam)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		kps := sift.Detect(fr.Image, cfg)
		siftMs = append(siftMs, float64(time.Since(t0).Microseconds())/1000)
		if len(kps) == 0 {
			continue
		}
		t1 := time.Now()
		if _, err := oracle.SelectUnique(kps, 200); err != nil {
			return nil, err
		}
		filterMs = append(filterMs, float64(time.Since(t1).Microseconds())/1000)
		frames++
	}
	e.AddCDF("SIFT", siftMs)
	e.AddCDF("VisualPrint Matching", filterMs)
	// SIFT's time is wall clock and Detect uses every core it is given, so
	// the core count is part of the result.
	e.Notef("medians: SIFT %.1f ms, filtering %.2f ms at GOMAXPROCS=%d (paper on Galaxy S6: 3300 / 217)",
		medianOf(siftMs), medianOf(filterMs), runtime.GOMAXPROCS(0))
	return e, nil
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

// Fig18Energy regenerates Figure 18: average power over a 70-second session
// for the five client configurations, from the calibrated component model.
func Fig18Energy(sc Scale) (*Experiment, error) {
	e := &Experiment{
		ID: "fig18", Title: "Average power by configuration",
		XLabel: "time (s)", YLabel: "power (W)",
	}
	m := power.Default()
	traces := []struct {
		name string
		w    power.Workload
	}{
		{"Display", power.DisplayOnly()},
		{"Android Camera", power.CameraPreview()},
		{"VisualPrint (only computation)", power.VisualPrintComputeOnly()},
		{"VisualPrint (only upload)", power.VisualPrintUploadOnly()},
		{"VisualPrint (computation+upload)", power.VisualPrintFull()},
	}
	for _, tr := range traces {
		series, err := m.Series(tr.w, 70*time.Second, time.Second)
		if err != nil {
			return nil, err
		}
		for i, v := range series {
			e.Points = append(e.Points, Point{Series: tr.name, X: float64(i), Y: v})
		}
		avg, _ := m.Average(tr.w)
		e.Notef("%s: %.1f W average", tr.name, avg)
	}
	off, _ := m.Average(power.FrameOffload())
	full, _ := m.Average(power.VisualPrintFull())
	e.Notef("whole-frame offload: %.1f W (paper 4.9); VisualPrint full: %.1f W (paper 6.5)", off, full)
	return e, nil
}
