package main

import "encoding/json"

// metricDef is one row of the metric dictionary. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics have none. The three time-based
// metrics carry 0.25, the most the benchmark contract allows: on the shared
// hosts this runs on, ten runs of identical code spread (quartile distance
// over median) 5-13% in a loud hour, and a bound has to clear that with room
// (README.md, "Measured steadiness"). rounded metrics derive from allocation
// counts, which repeat to within a few bytes per op for identical code:
// tables print them to three significant digits.
type metricDef struct {
	name, unit, better string
	bound              float64
	rounded            bool
}

var endToEnd = []metricDef{
	{"sim_cycles_per_s", "1/s", "higher", 0.25, false},
	{"result_p50_ms", "ms", "lower", 0.25, false},
	{"alloc_kb_per_op", "KB", "lower", 0.02, true},
	{"live_heap_mb", "MB", "lower", 0.05, false},
	{"setup_s", "s", "lower", 0.25, false},
}

// spanNames are the harness's span names, the rows of trace.self_us.
var spanNames = []string{"op", "network.new", "network.run", "stats.summarise",
	"simsvc.post", "simsvc.get_poll", "harness.check", "harness.wait",
	"job.queue-wait", "job.cache-lookup", "job.execute", "job.cache-store"}

// perLayer lists every per-layer metric a traced run reports. The sim.*
// counters, deadlock.scans_per_kcycle, the activity shares and
// simsvc.jobs_retained are exact: identical code and seed print identical
// values.
var perLayer = []metricDef{
	{"network.step_ns", "ns", "lower", 0, false},
	{"network.new_us", "us", "lower", 0, false},
	{"network.run_ms.pr", "ms", "lower", 0, false},
	{"network.run_ms.dr", "ms", "lower", 0, false},
	{"network.run_ms.sa", "ms", "lower", 0, false},
	{"network.phase_ns.source", "ns", "lower", 0, false},
	{"network.phase_ns.protocol", "ns", "lower", 0, false},
	{"network.phase_ns.routing", "ns", "lower", 0, false},
	{"network.phase_ns.arbitration", "ns", "lower", 0, false},
	{"network.phase_ns.rescue", "ns", "lower", 0, false},
	{"network.phase_ns.credit", "ns", "lower", 0, false},
	{"network.phase_ns.deadlock", "ns", "lower", 0, false},
	{"network.phase_ns.obs", "ns", "lower", 0, false},
	{"network.phase_accounted_share", "share", "higher", 0, false},
	{"network.active_router_share", "share", "lower", 0, false},
	{"network.active_ni_share", "share", "lower", 0, false},
	{"network.idle_cycle_share", "share", "higher", 0, false},
	{"network.snapshot_us", "us", "lower", 0, false},
	{"network.restore_us", "us", "lower", 0, false},
	{"routing.candidates_ns", "ns", "lower", 0, false},
	{"deadlock.scan_us", "us", "lower", 0, false},
	{"deadlock.scans_per_kcycle", "count", "lower", 0, false},
	{"stats.hist_add_ns", "ns", "lower", 0, false},
	{"sim.cycles", "count", "higher", 0, false},
	{"sim.delivered_flits", "count", "higher", 0, false},
	{"sim.detect_events", "count", "lower", 0, false},
	{"sim.deflections", "count", "lower", 0, false},
	{"sim.rescues", "count", "lower", 0, false},
	{"sim.cwg_deadlocks", "count", "lower", 0, false},
	{"sim.digest48", "count", "higher", 0, false},
	{"simsvc.handler_us.post_hit", "us", "lower", 0, false},
	{"simsvc.handler_us.post_miss", "us", "lower", 0, false},
	{"simsvc.handler_us.get_poll", "us", "lower", 0, false},
	{"simsvc.normalize_ns", "ns", "lower", 0, false},
	{"simsvc.hash_ns", "ns", "lower", 0, false},
	{"simsvc.store_get_ns", "ns", "lower", 0, false},
	{"simsvc.store_put_ns", "ns", "lower", 0, false},
	{"simsvc.store_get_disk_us", "us", "lower", 0, false},
	{"simsvc.store_put_disk_us", "us", "lower", 0, false},
	{"simsvc.response_bytes", "B", "lower", 0, false},
	{"simsvc.alloc_bytes_per_hit", "B", "lower", 0, true},
	{"simsvc.jobs_retained", "count", "lower", 0, false},
	{"simsvc.span_us.queue-wait", "us", "lower", 0, false},
	{"simsvc.span_us.cache-lookup", "us", "lower", 0, false},
	{"simsvc.span_us.execute", "us", "lower", 0, false},
	{"simsvc.span_us.cache-store", "us", "lower", 0, false},
	{"simsvc.span_us.encode", "us", "lower", 0, false},
	{"simsvc.polls_per_job", "count", "lower", 0, false},
	{"simsvc.execute_ms", "ms", "lower", 0, false},
	{"simsvc.bare_run_ms", "ms", "lower", 0, false},
	{"simsvc.execute_overhead_share", "share", "lower", 0, false},
	{"telemetry.prometheus_us", "us", "lower", 0, false},
	{"cluster.ring_owner_ns", "ns", "lower", 0, false},
	{"cluster.hop_added_us", "us", "lower", 0, false},
	{"cluster.hedges_fired", "count", "lower", 0, false},
	{"host.ref_kernel_ms", "ms", "lower", 0, false},
	{"host.block_spread_p50", "share", "lower", 0, false},
	{"host.block_spread_p90", "share", "lower", 0, false},
	{"trace.overhead_share", "share", "lower", 0, false},
	{"trace.accounted_share", "share", "higher", 0, false},
	{"trace.self_us.op", "us", "lower", 0, false},
	{"trace.self_us.network.new", "us", "lower", 0, false},
	{"trace.self_us.network.run", "us", "lower", 0, false},
	{"trace.self_us.stats.summarise", "us", "lower", 0, false},
	{"trace.self_us.simsvc.post", "us", "lower", 0, false},
	{"trace.self_us.simsvc.get_poll", "us", "lower", 0, false},
	{"trace.self_us.harness.check", "us", "lower", 0, false},
	{"trace.self_us.harness.wait", "us", "lower", 0, false},
	{"trace.self_us.job.queue-wait", "us", "lower", 0, false},
	{"trace.self_us.job.cache-lookup", "us", "lower", 0, false},
	{"trace.self_us.job.execute", "us", "lower", 0, false},
	{"trace.self_us.job.cache-store", "us", "lower", 0, false},
}

// runSeconds is the measured time of one run, BENCHMARK.json's run_seconds.
const runSeconds = 25

// contract renders BENCHMARK.json from the tables above, so the file and
// the program cannot drift apart (a test compares them).
func contract() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	b, _ := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n')
}
