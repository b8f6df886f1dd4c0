package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract with BENCHMARK.json (a test keeps them in
// sync): every untraced run prints every endToEnd metric, every traced run
// every perLayer metric, on every workload.
type metricDef struct{ Name, Unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"search_p50_ms", "ms"},
	{"recall_at_10", "ratio"},
	{"io_pages_per_query", "pages"},
	{"ok_frac", "ratio"},
	{"heap_mb", "MiB"},
}

var perLayer = []metricDef{
	{"search_p99_ms", "ms"},
	{"search_max_qps", "1/s"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"http.wait_us_p50", "us"},
	{"server.self_us_p50", "us"},
	{"server.shed", "count"},
	{"server.status_4xx", "count"},
	{"server.status_5xx", "count"},
	{"core.search_us_p50", "us"},
	{"core.search_us_p99", "us"},
	{"core.self_us_p50", "us"},
	{"core.reduce_us_reported_p50", "us"},
	{"lsh.candidates_us_p50", "us"},
	{"lsh.candidates_per_query", "count"},
	{"cache.hit_ratio", "ratio"},
	{"bounds.pruned_per_query", "count"},
	{"bounds.true_hits_per_query", "count"},
	{"bounds.refine_ratio", "ratio"},
	{"disk.page_reads_per_query", "pages"},
	{"disk.fetched_per_query", "count"},
	{"multistep.refine_us_reported_p50", "us"},
	{"disk.modeled_io_ms_per_query", "ms"},
	{"disk.retries", "count"},
	{"disk.errors", "count"},
	{"insert_p50_ms", "ms"},
	{"insert_p99_ms", "ms"},
	{"delete_p50_ms", "ms"},
	{"delete_p99_ms", "ms"},
	{"ingest.insert_us_p50", "us"},
	{"ingest.insert_us_p99", "us"},
	{"ingest.delete_us_p50", "us"},
	{"ingest.delete_us_p99", "us"},
	{"ingest.wal_bytes_per_write", "bytes"},
	{"ingest.delta_points_max", "count"},
	{"ingest.tombstones_max", "count"},
	{"ingest.compactions", "count"},
	{"ingest.compaction_errors", "count"},
	{"ingest.compaction_s", "s"},
	{"ingest.search_p99_compacting_ms", "ms"},
	{"ingest.search_p99_idle_ms", "ms"},
	{"maintain.rebuilds", "count"},
	{"maintain.rebuild_s", "s"},
	{"runtime.cpu_us_per_op", "us"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

// report accumulates one run's outcome.
type report struct {
	out       io.Writer
	defs      []metricDef
	values    map[string]float64
	notes     map[string]string
	correct   bool
	attempted int
	failed    int
	problems  []string
}

func newReport(out io.Writer, defs []metricDef) *report {
	return &report{out: out, defs: defs, values: map[string]float64{}, notes: map[string]string{}, correct: true}
}

// set records a metric with an optional note (its base, its sample count,
// or why it does not apply).
func (r *report) set(name string, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
		note = "undefined (no samples); " + note
	}
	r.values[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

// fail marks the run incorrect.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish prints every metric with its unit and note, then the one-line
// JSON result. A metric the run did not set is a bug in the benchmark.
func (r *report) finish() error {
	m := map[string]jsonMetric{}
	for _, d := range r.defs {
		v, ok := r.values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		note := ""
		if n := r.notes[d.Name]; n != "" {
			note = "  (" + n + ")"
		}
		fmt.Fprintf(r.out, "metric %-36s %14.6g %-6s%s\n", d.Name, v, d.Unit, note)
		m[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	for _, p := range r.problems {
		fmt.Fprintln(r.out, "CHECK FAILED:", p)
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, m})
	if err != nil {
		return err
	}
	fmt.Fprintln(r.out, string(b))
	return nil
}
