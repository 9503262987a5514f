// Command perfbench is the repository benchmark: it runs one workload
// from a seed, checks every output against a reference computed off the
// clock, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as the last line of standard output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"runtime"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed untraced.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"objects_per_s", "1/s"},
	{"write_latency_p50_ms", "ms"},
	{"delivery_latency_p50_ms", "ms"},
	{"read_latency_p50_ms", "ms"},
	{"lifecycle_latency_p50_ms", "ms"},
	{"comparisons_per_object", "count"},
	{"live_heap_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload bypasses
// reports 0.
var perLayer = []metricDef{
	{"cluster.agglomerate_s", "s"},
	{"cluster.clusters", "count"},
	{"window.ns_per_object", "ns"},
	{"window.allocs_per_object", "count"},
	{"window.filter_cmp_per_object", "count"},
	{"window.verify_cmp_per_object", "count"},
	{"window.delivered_per_verify", "ratio"},
	{"core.ns_per_object", "ns"},
	{"core.allocs_per_object", "count"},
	{"core.filter_cmp_per_object", "count"},
	{"core.verify_cmp_per_object", "count"},
	{"core.shard_skew", "ratio"},
	{"monitor.addbatch_us_per_object", "us"},
	{"monitor.self_us_per_object", "us"},
	{"monitor.allocs_per_object", "count"},
	{"monitor.lifecycle_us_p50", "us"},
	{"storage.append_us_p50", "us"},
	{"storage.append_calls", "count"},
	{"storage.bytes_per_object", "B"},
	{"storage.snapshot_ms", "ms"},
	{"server.batch_handler_us_p50", "us"},
	{"server.frontier_handler_us_p50", "us"},
	{"server.self_us_per_batch", "us"},
	{"server.client_overhead_us_p50", "us"},
	{"partition.router_batch_ms_p50", "ms"},
	{"partition.max_partition_handler_ms_p50", "ms"},
	{"partition.fanout_overhead_ms_p50", "ms"},
	{"partition.retries", "count"},
	{"subscribe.write_to_receipt_ms_p50", "ms"},
	{"subscribe.dropped", "count"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"runtime.alloc_mb_per_kobject", "MB"},
	{"loadgen.write_latency_p99_ms", "ms"},
	{"loadgen.delivery_latency_p99_ms", "ms"},
	{"loadgen.read_latency_p99_ms", "ms"},
	{"loadgen.samples", "count"},
	{"loadgen.max_late_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// args are the command-line settings every workload receives.
type args struct {
	seed    int64
	seconds int
	trace   bool
}

// outcome is what a workload reports back.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	// mismatch describes the first output that disagreed with the
	// reference; empty means every check passed.
	mismatch string
	sizes    map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, sizes: map[string]any{}}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

var workloads = map[string]func(args) (*outcome, error){
	"window-inproc": runWindowInproc,
	"serve-durable": runServeDurable,
	"routed":        runRouted,
}

func main() {
	workload := flag.String("workload", "", "workload to run: window-inproc, serve-durable or routed")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "how long the measured pass runs")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced pass instead of end-to-end ones")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fatalf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("need -seconds >= 1 and -trace 0 or 1")
	}
	// Pin the scheduler to the CPUs this process may use, and say so.
	runtime.GOMAXPROCS(runtime.NumCPU())
	a := args{seed: *seed, seconds: *seconds, trace: *trace == 1}

	o, err := run(a)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	env := map[string]any{
		"workload":   *workload,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"sizes":      o.sizes,
	}
	if o.mismatch != "" {
		env["mismatch"] = o.mismatch
	}
	line, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(line))

	defs := endToEnd
	if a.trace {
		defs = perLayer
	}
	res := result{
		Correct:   o.mismatch == "" && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, m := range defs {
		res.Metrics[m.name] = metricOut{Value: o.metrics[m.name], Unit: m.unit}
	}
	line, err = json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}
