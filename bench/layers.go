package main

import "fmt"

// endToEnd and perLayer list every metric of BENCHMARK.json with its unit,
// in the file's order. Every run reports all of the set it belongs to;
// TestMetricListsMatchBenchmarkJSON keeps the two in step.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"throughput_instrs_per_s", "instr/s"},
	{"compile_p50_ms", "ms"},
	{"compile_p99_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"slo_attainment", "fraction"},
	{"success_frac", "fraction"},
	{"static_conflicts", "count"},
	{"spill_instrs", "count"},
	{"sim_cycles", "cycles"},
	{"peak_rss_mb", "MiB"},
	{"alloc_bytes_per_instr", "B/instr"},
}

var perLayer = []struct{ name, unit string }{
	{"regalloc.self_ms", "ms"},
	{"regalloc.evictions", "count"},
	{"regalloc.spilled_vregs", "count"},
	{"regalloc.bank_breaks", "count"},
	{"assign.self_ms", "ms"},
	{"assign.forced", "count"},
	{"sched.self_ms", "ms"},
	{"coalesce.self_ms", "ms"},
	{"coalesce.removed", "count"},
	{"sdg.self_ms", "ms"},
	{"analysis.cfg_ms", "ms"},
	{"analysis.liveness_ms", "ms"},
	{"analysis.rcg_ms", "ms"},
	{"conflict.self_ms", "ms"},
	{"core.compiles", "count"},
	{"core.compile_ms", "ms"},
	{"core.allocs_per_compile", "count"},
	{"trace.phase_coverage", "fraction"},
	{"ir.parse_ms", "ms"},
	{"ir.fingerprint_ms", "ms"},
	{"server.decode_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.handler_ms", "ms"},
	{"http.transport_ms", "ms"},
	{"server.statz_total_p50_ms", "ms"},
	{"compilecache.full_hit_rate", "fraction"},
	{"compilecache.prefix_hit_rate", "fraction"},
	{"compilecache.alloc_hit_rate", "fraction"},
	{"compilecache.bytes_retained", "bytes"},
	{"compilecache.evictions", "count"},
	{"portfolio.race_ms", "ms"},
	{"portfolio.useful_frac", "fraction"},
	{"experiments.fig1_ms", "ms"},
	{"experiments.table1_ms", "ms"},
	{"experiments.rv1_ms", "ms"},
	{"experiments.rv2_ms", "ms"},
	{"experiments.table6_ms", "ms"},
	{"experiments.table7_ms", "ms"},
	{"experiments.methods_ms", "ms"},
	{"server.queued_peak", "count"},
	{"server.inflight_peak", "count"},
	{"server.rejected", "count"},
	{"sim.self_ms", "ms"},
	{"sim.steps", "count"},
	{"bench.lag_p99_ms", "ms"},
}

// metricUnits maps every metric of both lists to its unit.
var metricUnits = func() map[string]string {
	units := map[string]string{}
	for _, list := range [][]struct{ name, unit string }{endToEnd, perLayer} {
		for _, m := range list {
			units[m.name] = m.unit
		}
	}
	return units
}()

// setLayerDefaults reports every per-layer metric as 0 before a traced
// run fills in the layers its workload exercises: a layer the workload
// never calls did no work on it (README.md lists which workload measures
// which layer).
func setLayerDefaults(r *result) {
	for _, m := range perLayer {
		r.set(m.name, 0)
	}
}

// checkMetrics verifies that r reports exactly the metrics of its set.
func checkMetrics(r *result, trace bool) error {
	want := endToEnd
	if trace {
		want = perLayer
	}
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("run reports %d metrics, want %d", len(r.Metrics), len(want))
	}
	for _, m := range want {
		if _, ok := r.Metrics[m.name]; !ok {
			return fmt.Errorf("run does not report %s", m.name)
		}
	}
	return nil
}
