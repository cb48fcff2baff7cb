package main

// metricDef is one metric of the catalogue. BENCHMARK.json at the
// repository root lists the same names, units and directions; the smoke
// test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound (end-to-end metrics only) is the share of the parent's median
	// by which the metric may worsen before a change counts as a
	// regression.
	Bound float64
	// Workload and Moves (per-layer metrics only) name the workload the
	// layer metric is measured on and the end-to-end metric a change to
	// that layer should move there. On the other workloads the layer
	// does no work, reads 0, and the prediction is no change.
	Workload string
	Moves    string
}

// endToEndMetrics are measured with tracing off, on every workload.
// throughput_per_cpu_s counts packets (link), tags × timeline events
// (fleet-dense) or jobs (serve-http) per second of process CPU time;
// latency_p50_ms is per packet, per fleet.Run call and per job (client
// side, send to last NDJSON line) respectively; heap_p95_mb is the 95th
// percentile of the live heap sampled every 5 ms. The timing bounds are
// wide because on the shared 2-vCPU VM the benchmark was built on, the
// same code ran 10–15% faster or slower from one run to the next.
var endToEndMetrics = []metricDef{
	{Name: "throughput_per_cpu_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "heap_p95_mb", Unit: "MiB", Better: "lower", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	wLink  = "link"
	wFleet = "fleet-dense"
	wServe = "serve-http"

	thr = "throughput_per_cpu_s"
	p50 = "latency_p50_ms"
)

// perLayerMetrics are measured in the traced pass. Self times are span
// durations minus the part their child spans cover.
var perLayerMetrics = []metricDef{
	// link: mean self time per packet of each stage of the waveform
	// chain, averaged over every packet of the protocol mix.
	{Name: "link.modulate_us", Unit: "us", Better: "lower", Workload: wLink, Moves: thr},
	{Name: "link.identify_us", Unit: "us", Better: "lower", Workload: wLink, Moves: thr},
	{Name: "link.apply_tag_us", Unit: "us", Better: "lower", Workload: wLink, Moves: thr},
	{Name: "link.channel_us", Unit: "us", Better: "lower", Workload: wLink, Moves: thr},
	{Name: "link.decode_us", Unit: "us", Better: "lower", Workload: wLink, Moves: thr},
	{Name: "link.joint_decode_us", Unit: "us", Better: "lower", Workload: wLink, Moves: thr},
	// link: mean time of one single-tag decode, per protocol.
	{Name: "link.decode_us.80211b", Unit: "us", Better: "lower", Workload: wLink, Moves: p50},
	{Name: "link.decode_us.80211n", Unit: "us", Better: "lower", Workload: wLink, Moves: p50},
	{Name: "link.decode_us.ble", Unit: "us", Better: "lower", Workload: wLink, Moves: p50},
	{Name: "link.decode_us.zigbee", Unit: "us", Better: "lower", Workload: wLink, Moves: p50},
	{Name: "link.alloc_kb_per_packet", Unit: "KiB", Better: "lower", Workload: wLink, Moves: thr},
	{Name: "link.gc_cpu_share", Unit: "ratio", Better: "lower", Workload: wLink, Moves: thr},
	// identify_accuracy: correct identifications over packets;
	// tag_ber: tag bit errors over tag bits sent.
	{Name: "link.identify_accuracy", Unit: "ratio", Better: "higher", Workload: wLink, Moves: thr},
	{Name: "link.tag_ber", Unit: "ratio", Better: "lower", Workload: wLink, Moves: thr},
	{Name: "link.packets", Unit: "count", Better: "higher", Workload: wLink, Moves: thr},

	// fleet-dense: mean per-run time of each fleet.Run phase, read from
	// the stage timers fleet.Run publishes to Config.Obs.
	{Name: "fleet.timeline_ms", Unit: "ms", Better: "lower", Workload: wFleet, Moves: thr},
	{Name: "fleet.prefill_ms", Unit: "ms", Better: "lower", Workload: wFleet, Moves: thr},
	{Name: "fleet.identify_ms", Unit: "ms", Better: "lower", Workload: wFleet, Moves: thr},
	{Name: "fleet.contention_ms", Unit: "ms", Better: "lower", Workload: wFleet, Moves: thr},
	{Name: "fleet.downlink_ms", Unit: "ms", Better: "lower", Workload: wFleet, Moves: thr},
	{Name: "fleet.reduce_ms", Unit: "ms", Better: "lower", Workload: wFleet, Moves: thr},
	// run_self_ms: fleet.Run time no phase covers (tag set-up, sharding).
	{Name: "fleet.run_self_ms", Unit: "ms", Better: "lower", Workload: wFleet, Moves: p50},
	// shard_max_over_mean: parallel-phase wall time × workers over the
	// summed shard time of the fleet.shard_ns histogram; 1 means the
	// slowest worker carried no more than the mean load.
	{Name: "fleet.shard_max_over_mean", Unit: "ratio", Better: "lower", Workload: wFleet, Moves: p50},
	{Name: "fleet.alloc_mb_per_run", Unit: "MiB", Better: "lower", Workload: wFleet, Moves: thr},
	{Name: "fleet.gc_cpu_share", Unit: "ratio", Better: "lower", Workload: wFleet, Moves: thr},
	// cache_hit_ratio: calibrated-link cache hits over lookups.
	{Name: "fleet.cache_hit_ratio", Unit: "ratio", Better: "higher", Workload: wFleet, Moves: thr},
	// outcome counts: mean tag·packet outcomes per run.
	{Name: "fleet.outcome.delivered", Unit: "count", Better: "higher", Workload: wFleet, Moves: thr},
	{Name: "fleet.outcome.decoded-concurrent", Unit: "count", Better: "higher", Workload: wFleet, Moves: thr},
	{Name: "fleet.outcome.cross-collided", Unit: "count", Better: "lower", Workload: wFleet, Moves: thr},
	{Name: "fleet.outcome.collided", Unit: "count", Better: "lower", Workload: wFleet, Moves: thr},
	{Name: "fleet.outcome.misidentified", Unit: "count", Better: "lower", Workload: wFleet, Moves: thr},
	{Name: "fleet.outcome.lost-downlink", Unit: "count", Better: "lower", Workload: wFleet, Moves: thr},
	{Name: "fleet.runs", Unit: "count", Better: "higher", Workload: wFleet, Moves: thr},

	// serve-http: server-side means from the serve.latency.* histograms.
	{Name: "serve.run_ms", Unit: "ms", Better: "lower", Workload: wServe, Moves: p50},
	{Name: "serve.stream_ms", Unit: "ms", Better: "lower", Workload: wServe, Moves: p50},
	// http_overhead_ms: client send-to-last-line minus the server's e2e.
	{Name: "serve.http_overhead_ms", Unit: "ms", Better: "lower", Workload: wServe, Moves: p50},
	// per-job fleet phases from GET /metrics/jobs.
	{Name: "serve.fleet.timeline_ms", Unit: "ms", Better: "lower", Workload: wServe, Moves: thr},
	{Name: "serve.fleet.prefill_ms", Unit: "ms", Better: "lower", Workload: wServe, Moves: thr},
	{Name: "serve.fleet.identify_ms", Unit: "ms", Better: "lower", Workload: wServe, Moves: thr},
	{Name: "serve.fleet.contention_ms", Unit: "ms", Better: "lower", Workload: wServe, Moves: thr},
	{Name: "serve.fleet.downlink_ms", Unit: "ms", Better: "lower", Workload: wServe, Moves: thr},
	{Name: "serve.alloc_kb_per_job", Unit: "KiB", Better: "lower", Workload: wServe, Moves: thr},
	{Name: "serve.gc_cpu_share", Unit: "ratio", Better: "lower", Workload: wServe, Moves: thr},
	{Name: "serve.result_bytes_per_job", Unit: "B", Better: "lower", Workload: wServe, Moves: p50},
	// delivered_share: delivered plus decoded-concurrent outcomes over
	// tag·packets.
	{Name: "serve.delivered_share", Unit: "ratio", Better: "higher", Workload: wServe, Moves: thr},
	{Name: "serve.jobs", Unit: "count", Better: "higher", Workload: wServe, Moves: thr},

	// Every workload: the trace's own health.
	// coverage: layer self time over the load goroutines' wall time.
	{Name: "trace.coverage", Unit: "ratio", Better: "higher", Workload: "all", Moves: "none"},
	// overhead_pct: untraced minus traced throughput, in percent of
	// untraced, measured in the same process.
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Workload: "all", Moves: "none"},
	{Name: "trace.spans", Unit: "count", Better: "higher", Workload: "all", Moves: "none"},
	// latency_p90_ms: the tail the end-to-end set leaves out, from the
	// traced run's untraced half; it moved with steal time by more than
	// any bound allows.
	{Name: "e2e.latency_p90_ms", Unit: "ms", Better: "lower", Workload: "all", Moves: "none"},
}
