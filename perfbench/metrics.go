package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// metricDef names one metric and its unit. The lists below are the
// benchmark's vocabulary; BENCHMARK.json declares the same names and units
// (the self-test holds the two in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by an
// untraced run (--trace 0) on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rows_per_s", "rows/s"},
	{"query_p50_ms", "ms"},
	{"query_tail_ms", "ms"},
	{"max_rss_mb", "MiB"},
}

// perLayer are the single-layer metrics a traced run (--trace 1) prints on
// every workload. A layer a workload does not exercise reads 0 there
// (README.md lists which layers each workload drives).
var perLayer = []metricDef{
	{"words", "words"},
	{"rel_err", "ratio"},
	{"workload.read_s", "s"},
	{"workload.rows", "count"},
	{"workload.alloc_bytes_per_row", "B"},
	{"fd.updates", "count"},
	{"fd.shrinks", "count"},
	{"fd.shrink_s", "s"},
	{"fd.update_s", "s"},
	{"fd.merge_s", "s"},
	{"fd.shrink_share", "ratio"},
	{"linalg.svd_ms", "ms"},
	{"matrix.gram_ms", "ms"},
	{"core.sample_s", "s"},
	{"core.estimate_ms", "ms"},
	{"comm.msgs", "count"},
	{"comm.bits", "bits"},
	{"comm.encode_us", "us"},
	{"comm.decode_us", "us"},
	{"distributed.send_s", "s"},
	{"distributed.recv_wait_s", "s"},
	{"distributed.server_s_max", "s"},
	{"distributed.server_skew", "ratio"},
	{"monitoring.uploads", "count"},
	{"monitoring.broadcasts", "count"},
	{"monitoring.absorb_ms", "ms"},
	{"service.status_ms", "ms"},
	{"service.sketch_ms", "ms"},
	{"service.topk_ms", "ms"},
	{"service.http_overhead_ms", "ms"},
	{"service.stale_frac", "ratio"},
	{"pca.topk_ms", "ms"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"loadgen.late_ms", "ms"},
	{"query.samples", "count"},
	{"query.tail_pct", "%"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unattributed_frac", "ratio"},
}

// report is what one workload run hands back to main: operation counts,
// the measured values by metric name, and human-readable notes printed
// before the result line.
type report struct {
	attempted, failed int
	values            map[string]float64
	notes             []string
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records one verified operation; a false ok counts it as failed and
// keeps the reason as a note.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.note("CHECK FAILED: "+format, args...)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result builds the result line for the given metric set. A metric the
// run did not set, or set to a value that is not a finite number, is an
// error in the benchmark itself.
func (r *report) result(defs []metricDef) (result, error) {
	out := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return out, fmt.Errorf("metrics not measured: %v", missing)
	}
	return out, nil
}

// emit prints the notes and then the result line for the given metric set.
func (r *report) emit(defs []metricDef) error {
	out, err := r.result(defs)
	if err != nil {
		return err
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(os.Stdout, string(b))
	return err
}
