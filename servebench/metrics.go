package main

import "fastintersect/internal/plan"

// metricSpec names one reported metric. BENCHMARK.json lists the same
// names, units and directions (TestCatalogMatchesBenchmarkJSON).
type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEnd is what a client of fsiserve sees, measured untraced. The
// p99 round trips are printed beside them but not bounded: on a shared
// 2-vCPU VM their run-to-run spread exceeds any allowed bound. The traced
// run reports them as fsiserve.query_p99_us and fsiserve.write_p99_us.
var endToEnd = []metricSpec{
	{"query_p50_us", "us", "lower", 0.25},
	{"throughput_ops", "ops/s", "higher", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"server_rss_mb", "MiB", "lower", 0.10},
	{"bytes_per_posting", "B", "lower", 0.05},
}

// reportedKernels are the conjunction kernels fsiserve's raw storage can
// run; the stored-tier kernels only run under -storage compressed.
var reportedKernels = []plan.Kernel{
	plan.KernelMerge, plan.KernelGallop, plan.KernelHashBin, plan.KernelGroupScan, plan.KernelBitsegAnd,
}

// perLayer is what the traced run reports. The README's layer table says
// which end-to-end metric each should move, and on which workload.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{name: "fsiserve.query_p99_us", unit: "us", better: "lower"},
		{name: "fsiserve.write_p99_us", unit: "us", better: "lower"},
		{name: "fsiserve.handler_us", unit: "us", better: "lower"},
		{name: "fsiserve.self_us", unit: "us", better: "lower"},
		{name: "fsiserve.wire_us", unit: "us", better: "lower"},
		{name: "fsiserve.resp_bytes", unit: "B", better: "lower"},
		{name: "fsiserve.write_handler_us", unit: "us", better: "lower"},
		{name: "admission.acquire_us", unit: "us", better: "lower"},
		{name: "admission.acquire_p99_us", unit: "us", better: "lower"},
		{name: "admission.coalesce_self_us", unit: "us", better: "lower"},
		{name: "admission.coalesced_ratio", unit: "ratio", better: "higher"},
		{name: "admission.queued", unit: "count", better: "lower"},
		{name: "admission.shed", unit: "count", better: "lower"},
		{name: "plan.parse_us", unit: "us", better: "lower"},
		{name: "plan.parse_allocs", unit: "allocs/op", better: "lower"},
		{name: "plan.calibrate_s", unit: "s", better: "lower"},
		{name: "plan.cache_hit_ratio", unit: "ratio", better: "higher"},
		{name: "engine.canonicalize_us", unit: "us", better: "lower"},
		{name: "engine.query_us", unit: "us", better: "lower"},
		{name: "engine.query_p99_us", unit: "us", better: "lower"},
		{name: "engine.query_allocs", unit: "allocs/op", better: "lower"},
		{name: "engine.query_bytes", unit: "B/op", better: "lower"},
		{name: "engine.cache_hit_ratio", unit: "ratio", better: "higher"},
		{name: "engine.cache_stale_ratio", unit: "ratio", better: "lower"},
	}
	for _, s := range []string{"parse", "normalize", "cache", "plan", "exec", "merge"} {
		m = append(m, metricSpec{name: "engine.stage." + s + "_us", unit: "us", better: "lower"})
	}
	m = append(m,
		metricSpec{name: "engine.add_us", unit: "us", better: "lower"},
		metricSpec{name: "engine.delete_us", unit: "us", better: "lower"},
		metricSpec{name: "invindex.install_s", unit: "s", better: "lower"},
		metricSpec{name: "segment.per_shard", unit: "segments", better: "lower"},
		metricSpec{name: "segment.freezes", unit: "count", better: "lower"},
		metricSpec{name: "segment.merges", unit: "count", better: "lower"},
		metricSpec{name: "segment.write_amp", unit: "ratio", better: "lower"},
		metricSpec{name: "segment.tombstones", unit: "count", better: "lower"},
		metricSpec{name: "kernels.ns_per_query", unit: "ns", better: "lower"},
	)
	for _, k := range reportedKernels {
		m = append(m, metricSpec{name: "kernels.execs." + k.String(), unit: "count/query", better: "lower"})
	}
	m = append(m,
		metricSpec{name: "kernels.rows_per_exec", unit: "rows", better: "lower"},
		metricSpec{name: "runtime.gc_per_kop", unit: "count", better: "lower"},
		metricSpec{name: "trace.overhead.server", unit: "ratio", better: "higher"},
		metricSpec{name: "trace.overhead.inproc", unit: "ratio", better: "higher"},
	)
	return m
}()
