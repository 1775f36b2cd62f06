package main

import (
	"time"

	vp "visualprint"
)

// perLayer computes the per-layer metrics of a traced run. A layer is a
// module of the repository. Timings are taken by the benchmark around the
// public call into the layer; the lsh, cluster, pose, track and
// requests_shed numbers are deltas of the server's own report over the
// phase (serverDelta). e2e holds the traced run's own end-to-end values:
// set beside an untraced run's they give the cost of tracing.
func perLayer(b *bench, p *phase, sd serverDelta, e2e map[string]float64) map[string]float64 {
	queries := float64(p.queries)
	extract, sel, rtt, late := b.tr.ms("extract"), b.tr.ms("select"), b.tr.ms("rtt"), b.tr.ms("late")
	marshalUs, unmarshalUs := codecTimes(b.in.views)
	warm, cold, rejected := sd.counter("track_warm"), sd.counter("track_cold"), sd.counter("track_prior_rejected")
	all := latencies(p.all())

	return map[string]float64{
		"sift.extract_ms_p50":      zeroIfNone(extract, 0.5),
		"sift.extract_ms_p90":      zeroIfNone(extract, 0.9),
		"sift.keypoints_per_frame": ratio(float64(p.extracted), queries),
		"core.select_ms_p50":       zeroIfNone(sel, 0.5),
		"core.select_keep_ratio":   ratio(float64(p.kept), float64(p.extracted)),
		"codec.marshal_us_p50":     marshalUs,
		"codec.unmarshal_us_p50":   unmarshalUs,

		"server.rtt_ms_p50":                 zeroIfNone(rtt, 0.5),
		"server.rtt_ms_p90":                 zeroIfNone(rtt, 0.9),
		"server.locate_direct_ms_p50":       median(b.ref.directMs),
		"server.wire_overhead_ms_p50":       median(b.ref.overheadMs),
		"server.rpc_floor_us_p50":           rpcFloorUs(b.sys.clients[0]),
		"server.bytes_received_per_query":   ratio(sd.counter("bytes_in"), queries),
		"server.locate_direct_allocs":       b.ref.allocs,
		"server.locate_direct_bytes":        b.ref.bytes,
		"server.bulk_ingest_mappings_per_s": b.sys.ingestPerS,
		"server.bulk_ingest_ack_ms_p50":     median(b.sys.ingestAckMs),
		"server.requests_shed":              sd.counter("requests_shed"),
		"server.ingest_ack_ms_p50":          zeroIfNone(p.ingestAckMs, 0.5),
		"server.ingest_ack_ms_p90":          zeroIfNone(p.ingestAckMs, 0.9),

		"lsh.stage_ms_mean":     sd.histMean("stage_lsh_query_ns") / 1e6,
		"cluster.stage_ms_mean": sd.histMean("stage_cluster_ns") / 1e6,
		"pose.stage_ms_mean":    sd.histMean("stage_pose_solve_ns") / 1e6,

		"track.warm_hit_ratio":        ratio(warm, warm+cold),
		"track.rejected_ratio":        ratio(rejected, warm+cold),
		"track.warm_generations_mean": sd.histMean("track_warm_generations"),

		"odelta.sync_ms_p50":           zeroIfNone(p.syncMs, 0.5),
		"odelta.sync_bytes_per_update": ratio(float64(p.syncBytes), float64(len(p.syncMs))),
		"odelta.full_blob_bytes":       float64(b.sys.fullBlobBytes),
		"bloom.oracle_fetch_ms":        b.sys.oracleFetchMs,

		"gen.late_ms_p50": zeroIfNone(late, 0.5),
		"gen.late_ms_max": maxOf(late),
		"gen.backlog_end": float64(p.backlog),
		"gen.inputs_s":    b.in.genS,

		"phase.ms_p90":  percentile(all, 0.9),
		"phase.ms_p95":  percentile(all, 0.95),
		"phase.ms_p99":  percentile(all, 0.99),
		"phase.samples": float64(len(all)),

		"harness.self_ms_p50":     zeroIfNone(b.tr.selfTimes(), 0.5),
		"trace.spans":             float64(len(b.tr.spans)),
		"trace.latency_ms_p50":    e2e["latency_ms_p50"],
		"trace.poses_per_s":       e2e["poses_per_s"],
		"quality.pos_err_m_p50":   e2e["pos_err_m_p50"],
		"quality.localized_ratio": e2e["localized_ratio"],
	}
}

// zeroIfNone is the q-quantile of xs, or 0 when the layer did no work in
// this workload and there is nothing to take a quantile of.
func zeroIfNone(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(xs, q)
}

// codecTimes replays the wire encoding of every view's fingerprint. The
// work lies inside the rtt span (client encode, server decode), so it is
// not added to anything.
func codecTimes(views []view) (marshalUs, unmarshalUs float64) {
	var m, u []float64
	for _, v := range views {
		t0 := time.Now()
		data := vp.MarshalKeypoints(v.fp)
		t1 := time.Now()
		if _, err := vp.UnmarshalKeypoints(data); err != nil {
			continue
		}
		m = append(m, us(t1.Sub(t0)))
		u = append(u, us(time.Since(t1)))
	}
	return zeroIfNone(m, 0.5), zeroIfNone(u, 0.5)
}

// rpcFloorUs is the median round trip of the smallest message the protocol
// has, Client.Stats: wire and dispatch with no work behind them.
func rpcFloorUs(c *vp.Client) float64 {
	var xs []float64
	for i := 0; i < 1000; i++ {
		ctx, cancel := rpcCtx()
		t0 := time.Now()
		_, err := c.Stats(ctx)
		d := time.Since(t0)
		cancel()
		if err == nil {
			xs = append(xs, us(d))
		}
	}
	return zeroIfNone(xs, 0.5)
}
