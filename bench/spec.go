package main

// The metric catalogue: what a run prints. BENCHMARK.json at the
// repository root states the same names and units for the driver, and
// adds each metric's direction and bound; spec_test.go keeps the two in
// step.

// Workload names, in the order a full run executes them.
const (
	wTrain   = "train_epoch"
	wRead    = "read_batch"
	wWrite   = "write_mixed"
	wRestart = "restart"
)

var workloads = []string{wTrain, wRead, wWrite, wRestart}

type metricDef struct {
	Name string
	Unit string
}

// endToEnd is reported by every workload on an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p90_ms", "ms"},
	{"cpu_s_per_kop", "s"},
	{"rss_mb", "MB"},
	{"quality", "ratio"},
}

type layerDef struct {
	metricDef
	Workload string // the traced run that measures it; "" = every traced run
}

func layer(workload, name, unit string) layerDef {
	return layerDef{metricDef{name, unit}, workload}
}

// perLayer is reported by every workload on a traced run. A metric whose
// layer is off the workload's path reads 0 there: no call was made.
var perLayer = []layerDef{
	layer(wTrain, "walk.walks_us", "us"),
	layer(wTrain, "walk.mean_len", "count"),
	layer(wTrain, "sample.negative_ns", "ns"),
	layer(wTrain, "ehna.aggregate_us", "us"),
	layer(wTrain, "ehna.edgeloss_fwd_us", "us"),
	layer(wTrain, "ag.backward_us", "us"),
	layer(wTrain, "ehna.optimizer_share", "ratio"),
	layer(wTrain, "ehna.allocs_per_edge", "count"),
	layer(wTrain, "ehna.alloc_kb_per_edge", "KB"),
	layer(wTrain, "ehna.gc_cpu_share", "ratio"),
	layer(wTrain, "ehna.infer_all_ms", "ms"),
	layer(wTrain, "ehna.loss_ratio", "ratio"),

	layer(wRead, "vecmath.dot_sq8sym_ns", "ns"),
	layer(wRead, "vecmath.dot_sq8_ns", "ns"),
	layer(wRead, "vecmath.dot_f64_ns", "ns"),
	layer(wRead, "embstore.with_ns", "ns"),
	layer(wRead, "embstore.bytes_per_vector", "count"),
	layer(wRead, "ann.search_into_us", "us"),
	layer(wRead, "ann.search_batch_us_per_query", "us"),
	layer(wRead, "ann.exact_us", "us"),
	layer(wRead, "ann.allocs_per_query", "count"),
	layer(wRead, "ann.recall_at_10", "ratio"),
	layer(wRead, "ehnad.read_residual_us", "us"),
	layer(wRead, "ehnad.resp_bytes_per_query", "count"),
	layer(wRead, "cluster.router_overhead_us", "us"),

	layer(wWrite, "ehnad.batch_size_mean", "count"),
	layer(wWrite, "ehnad.queue_wait_us_mean", "us"),
	layer(wWrite, "wal.append_us", "us"),
	layer(wWrite, "wal.fsync_us", "us"),
	layer(wWrite, "wal.bytes_per_record", "count"),
	layer(wWrite, "wal.replay_us_per_record", "us"),
	layer(wWrite, "embstore.upsert_us", "us"),
	layer(wWrite, "embstore.apply_wal_us", "us"),
	layer(wWrite, "ann.add_us", "us"),
	layer(wWrite, "ann.readd_us", "us"),
	layer(wWrite, "ehnad.fsyncs_per_write", "ratio"),
	layer(wWrite, "ehnad.write_residual_us", "us"),
	layer(wWrite, "ehnad.recovered_share", "ratio"),
	layer(wWrite, "ehnad.recovery_ms", "ms"),

	layer(wRestart, "embstore.open_mmap_ms", "ms"),
	layer(wRestart, "embstore.load_v3_ms", "ms"),
	layer(wRestart, "embstore.snapshot_v3_ms", "ms"),
	layer(wRestart, "ann.graph_load_ms", "ms"),
	layer(wRestart, "ann.graph_bytes_per_node", "count"),
	layer(wRestart, "ann.build_ms_per_knode", "ms"),
	layer(wRestart, "ehnad.boot_reported_ms", "ms"),
	layer(wRestart, "ehnad.spawn_residual_ms", "ms"),

	layer("", "host.steal_share", "ratio"),
	layer("", "host.nproc", "count"),
}
