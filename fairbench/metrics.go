package main

// metricDef names one reported metric and its unit. The lists must match
// BENCHMARK.json at the repository root; the self-test checks that they do.
type metricDef struct {
	name string
	unit string
}

// endToEnd metrics are what a user of the service sees. Every workload
// reports each of them for its own timed operation (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_us", "us"},
	{"p90_us", "us"},
	{"heap_mb", "MiB"},
}

// perLayer metrics come from the traced run. A layer a workload does not
// exercise reads 0 there; the library-level layers (kernel, build, persist,
// planner timings) are measured on every workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"http.loopback_us", "us"},
		{"http.handler_us", "us"},
		{"http.self_us", "us"},
		{"http.net_us", "us"},
		{"http.allocs_per_req", "count"},
		{"http.batch_self_ns_per_query", "ns"},
		{"service.suggest_us", "us"},
		{"service.cache_hit_us", "us"},
		{"service.self_us", "us"},
		{"service.cache_hit_frac", "fraction"},
		{"planner.dedup_rate", "fraction"},
		{"planner.chunk_size", "count"},
		{"planner.resume_hits", "count"},
	}
	for _, e := range engineNames {
		defs = append(defs, metricDef{"batch.p50_us." + e, "us"})
	}
	for _, e := range engineNames {
		defs = append(defs, metricDef{"planner.batch_ns_per_query." + e, "ns"})
	}
	for _, e := range engineNames {
		defs = append(defs, metricDef{"planner.vs_loop_ratio." + e, "ratio"})
	}
	for _, e := range engineNames {
		defs = append(defs, metricDef{"kernel.suggest_ns." + e, "ns"})
	}
	for _, e := range engineNames {
		defs = append(defs, metricDef{"kernel.already_fair_frac." + e, "fraction"})
	}
	for _, e := range engineNames {
		defs = append(defs, metricDef{"build.ms." + e, "ms"})
	}
	for _, e := range engineNames {
		defs = append(defs, metricDef{"build.index_bytes." + e, "bytes"})
	}
	for _, e := range patchEngines {
		defs = append(defs, metricDef{"patch.repair_ms." + e, "ms"})
	}
	for _, e := range patchEngines {
		defs = append(defs, metricDef{"patch.p50_ms." + e, "ms"}, metricDef{"patch.p90_ms." + e, "ms"})
	}
	defs = append(defs,
		metricDef{"patch.self_ms", "ms"},
		metricDef{"patch.repaired_frac", "fraction"},
		metricDef{"patch.late_ms", "ms"},
		metricDef{"cluster.owner_us", "us"},
		metricDef{"cluster.replica_us", "us"},
		metricDef{"cluster.forwarded_us", "us"},
		metricDef{"cluster.forward_self_us", "us"},
		metricDef{"cluster.read_split.local", "fraction"},
		metricDef{"cluster.read_split.replica", "fraction"},
		metricDef{"cluster.read_split.forwarded", "fraction"},
		metricDef{"cluster.stale_forwards", "count"},
		metricDef{"cluster.forward_failures", "count"},
	)
	for _, e := range engineNames {
		defs = append(defs, metricDef{"persist.save_us." + e, "us"})
	}
	for _, e := range engineNames {
		defs = append(defs, metricDef{"persist.load_us." + e, "us"})
	}
	defs = append(defs, metricDef{"trace.overhead_frac", "fraction"})
	for _, s := range traceStages {
		defs = append(defs, metricDef{"trace.stage_us." + s, "us"})
	}
	return defs
}()

// patchTraffic are the patch metrics only patch-churn's PATCH traffic
// produces; the other workloads report them as 0.
var patchTraffic = []string{"patch.p50_ms.2d", "patch.p90_ms.2d", "patch.p50_ms.approx", "patch.p90_ms.approx",
	"patch.self_ms", "patch.repaired_frac", "patch.late_ms"}

// patchEngines are the engines patch-churn mutates.
var patchEngines = []string{"2d", "approx"}

// traceStages are the server's own span names read from /debug/traces.
var traceStages = []string{"decode", "cache", "planner", "kernel", "forward"}
