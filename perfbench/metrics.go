package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names one reported metric and its unit. The lists below are
// the contract with BENCHMARK.json: TestMetricsMatchBenchmarkJSON keeps the
// two in step.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload's untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"gc_pause_mean_ms", "ms"},
	{"gc_pause_p90_ms", "ms"},
	{"rss_peak_mib", "MiB"},
	{"success_ratio", "ratio"},
}

// perLayer are the traced run's per-layer metrics. Every workload reports
// every one of them; a layer the workload does not pass through reads 0.
var perLayer = []metricDef{
	{"svc.latency_p50_ms.low", "ms"},
	{"svc.latency_p50_ms.mid", "ms"},
	{"svc.latency_p50_ms.high", "ms"},
	{"svc.latency_p99_ms.low", "ms"},
	{"svc.latency_p99_ms.mid", "ms"},
	{"svc.latency_p99_ms.high", "ms"},
	{"svc.max_rps_within_slo", "1/s"},
	{"svc.fail_ratio", "ratio"},
	{"assertd.handler_p50_us", "us"},
	{"assertd.handler_p99_us", "us"},
	{"assertd.drive_p50_us", "us"},
	{"assertd.drive_p99_us", "us"},
	{"assertd.http_overhead_p50_us", "us"},
	{"assertd.client_overhead_p50_us", "us"},
	{"assertd.queue_p99_ms", "ms"},
	{"assertd.requests", "count"},
	{"assertd.failures", "count"},
	{"assertd.violations.clean", "count"},
	{"assertd.violations.observed", "count"},
	{"minivm.compile_ms", "ms"},
	{"minivm.guest_p50_us", "us"},
	{"mutator.ms_per_iter", "ms"},
	{"heap.alloc_objects_per_op", "objects/op"},
	{"collector.collections_per_op", "1/op"},
	{"collector.gc_share", "ratio"},
	{"collector.mark_ns_per_object", "ns"},
	{"collector.objects_marked_per_gc", "count"},
	{"collector.sweep_us_per_gc", "us"},
	{"parmark.steals_per_gc", "count"},
	{"parmark.fallbacks", "count"},
	{"core.ownership_us_per_gc", "us"},
	{"core.ownees_checked_per_gc", "count"},
	{"core.dead_asserted", "count"},
	{"core.violations", "count"},
	{"tenant.gc_pause_p99_us.clean", "us"},
	{"tenant.gc_pause_p99_us.observed", "us"},
	{"go.alloc_bytes_per_op", "B/op"},
	{"go.gc_cycles_per_op", "1/op"},
	{"loadgen.lateness_p50_ms", "ms"},
	{"loadgen.lateness_p99_ms", "ms"},
	{"loadgen.ladder_valid", "flag"},
	{"self.queue_us", "us"},
	{"self.client_us", "us"},
	{"self.handler_us", "us"},
	{"self.drive_us", "us"},
	{"self.iteration_us", "us"},
	{"self.gc_us", "us"},
	{"self.ownership_us", "us"},
	{"self.mark_us", "us"},
	{"self.sweep_us", "us"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// report is one run's outcome: counts, metric values, failed output
// checks, and human-readable detail lines printed before the JSON result.
type report struct {
	attempted int64
	failed    int64
	e2e       map[string]float64
	layer     map[string]float64
	failures  []string
	notes     []string
}

func newReport() *report {
	return &report{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

// check records a failed output check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// note adds a human-readable report line.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints the report lines, then the metric table of the selected
// set, then the JSON result as the last line.
func (r *report) write(w io.Writer, traced bool) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layer
	}
	res := jsonResult{
		Correct:   len(r.failures) == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.Name] = jsonMetric{Value: vals[d.Name], Unit: d.Unit}
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.Name, vals[d.Name], d.Unit)
	}
	fails := append([]string(nil), r.failures...)
	sort.Strings(fails)
	for _, f := range fails {
		fmt.Fprintln(w, "CHECK FAILED:", f)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
