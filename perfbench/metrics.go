package main

// perLayer is what a -trace 1 run reports, in BENCHMARK.json order.
// README.md names the end-to-end metric and workload each should move.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"workload.process.ms", "ms"},
		{"core.plan.ms", "ms"},
		{"core.profile.ns_per_vminst", "ns"},
		{"core.run.ns_per_vminst", "ns"},
		{"harness.train.s", "s"},
		{"grid_s", "s"},
		{"harness.grid.self_s", "s"},
		{"cpu.apply.ns_per_event.btb", "ns"},
		{"cpu.apply.ns_per_event.twobit", "ns"},
		{"cpu.apply.ns_per_event.twolevel", "ns"},
		{"disptrace.record.ns_per_event", "ns"},
		{"disptrace.encode.ns_per_event", "ns"},
		{"disptrace.disk_bytes_per_event", "B"},
		{"disptrace.load.ms", "ms"},
		{"disptrace.decode.ns_per_event", "ns"},
		{"disptrace.replay.ns_per_event", "ns"},
		{"disptrace.replay_compiled.ns_per_event", "ns"},
		{"disptrace.compile.ns_per_event", "ns"},
		{"disptrace.arena_bytes_per_event", "B"},
		{"disptrace.replay_each.ns_per_event", "ns"},
		{"disptrace.diff.ns_per_inst", "ns"},
		{"disptrace.trace_loads", "count"},
		{"disptrace.trace_records", "count"},
		{"disptrace.compiled_builds", "count"},
		{"disptrace.compiled_evictions", "count"},
		{"disptrace.compiled_hit_ratio", "ratio"},
		{"serve.lru_hit_ratio", "ratio"},
		{"serve.coalesced", "count"},
		{"serve.rejected", "count"},
	}
	for _, op := range []string{"run", "sweep", "diff"} {
		for _, st := range stageNames {
			m = append(m, metricDef{"serve." + op + "." + st + ".ms", "ms"})
		}
	}
	m = append(m, metricDef{"op_tail_ms", "ms"})
	for _, op := range []string{"run", "sweep", "diff"} {
		m = append(m, metricDef{op + "_p50_ms", "ms"}, metricDef{op + "_tail_ms", "ms"})
	}
	return append(m,
		metricDef{"client.late_ms", "ms"},
		metricDef{"client.transport_ms", "ms"},
		metricDef{"error_ratio", "ratio"},
		metricDef{"trace.unexplained_ratio", "ratio"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
}()
