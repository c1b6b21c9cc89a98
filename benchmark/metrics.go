package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one metric of the catalog BENCHMARK.json lists.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" | "lower"
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them, from an untraced run.
var endToEnd = []metricDef{
	{"decisions_per_s", "1/s", "higher"},
	{"decide_p50_us", "us", "lower"},
	{"decide_p95_us", "us", "lower"},
	{"setup_s", "s", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// perLayer is the traced run's budget, one group per package. A layer
// that does no work on a workload reports 0 there.
var perLayer = []metricDef{
	{"simnet.self_us_per_decision", "us", "lower"},
	{"simnet.self_share", "ratio", "lower"},
	{"simnet.decisions", "count", "lower"},
	{"simnet.flows", "count", "higher"},
	{"simnet.success_ratio", "ratio", "higher"},
	{"simnet.cohort_calls", "count", "lower"},
	{"simnet.cohort_mean_rows", "count", "higher"},
	{"simnet.shards2_ratio", "ratio", "higher"},

	{"coord.observe_us_per_row", "us", "lower"},
	{"coord.policy_us_per_row", "us", "lower"},
	{"coord.observe_share", "ratio", "lower"},
	{"coord.policy_share", "ratio", "lower"},
	{"coord.deploy_s", "s", "lower"},
	{"coord.deploy_heap_mb", "MB", "lower"},
	{"coord.seq_us_per_decision", "us", "lower"},

	{"nn.forward_us_k1", "us", "lower"},
	{"nn.batch_us_per_row_k2", "us", "lower"},
	{"nn.batch_us_per_row_k4", "us", "lower"},
	{"nn.batch_us_per_row_k16", "us", "lower"},
	{"nn.sample_us_per_row", "us", "lower"},
	{"nn.flops_per_row", "flop", "lower"},
	{"nn.weight_bytes_resident", "B", "lower"},
	{"nn.gflops_k1", "Gflop/s", "higher"},
	{"nn.gflops_k16", "Gflop/s", "higher"},
	{"nn.load_s", "s", "lower"},

	{"agentnet.rtt_us_p50", "us", "lower"},
	{"agentnet.wire_us_p50", "us", "lower"},
	{"agentnet.infer_us_p50", "us", "lower"},
	{"agentnet.wire_share", "ratio", "lower"},
	{"agentnet.dial_s", "s", "lower"},
	{"agentnet.failed", "count", "lower"},
	{"agentnet.reconnects", "count", "lower"},
	{"agentnet.bytes_per_decision", "B", "lower"},

	{"rl.rollout_share", "ratio", "lower"},
	{"rl.update_share", "ratio", "lower"},
	{"rl.update_us_per_step", "us", "lower"},
	{"rl.steps", "count", "higher"},
	{"rl.backtracks", "count", "lower"},

	{"graph.build_s", "s", "lower"},
	{"graph.apsp_s", "s", "lower"},
	{"eval.instantiate_s", "s", "lower"},

	{"flowtrace.overhead_ratio", "ratio", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// report is the outcome of one run of one workload.
type report struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`

	// One operation is one coordinator decision. Failed counts decisions
	// whose transport failed plus every decision of an episode that broke
	// a correctness check.
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`

	Metrics map[string]float64 `json:"metrics"`
	// Info holds what is printed beside the metrics but not gated:
	// counts that must repeat exactly for a seed, sample sizes, p99.
	Info     map[string]any `json:"info"`
	Problems []string       `json:"problems,omitempty"`
}

func newReport(rc runConfig) *report {
	r := &report{
		Seed:    rc.seed,
		Trace:   rc.trace,
		Metrics: map[string]float64{},
		Info:    map[string]any{},
	}
	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	for _, d := range defs {
		r.Metrics[d.name] = 0
	}
	return r
}

// set records a metric of the catalog; any other name is a bug. A value
// that is not a finite number (a ratio over an empty episode) fails the
// run instead of breaking the result line.
func (r *report) set(name string, v float64) {
	if _, ok := r.Metrics[name]; !ok {
		panic("benchmark: metric " + name + " is not in the catalog for this run")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problem("metric %s is %v", name, v)
		return
	}
	r.Metrics[name] = v
}

func (r *report) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// finish settles the verdict once every check has run.
func (r *report) finish() {
	r.Correct = len(r.Problems) == 0
	if r.Attempted < 1 {
		r.Attempted = 1
		r.Correct = false
	}
}

func (r *report) defs() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// print writes the metrics by name with their units, the ungated
// information, and any failed check.
func (r *report) print(w io.Writer) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s seed %d (%s; closed loop, one decision in flight)\n", r.Workload, r.Seed, mode)
	for _, d := range r.defs() {
		fmt.Fprintf(w, "%-30s %16.6g %-6s (%s is better)\n", d.name, r.Metrics[d.name], d.unit, d.better)
	}
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-28s %v\n", k, r.Info[k])
	}
	fmt.Fprintf(w, "  %-28s %d\n  %-28s %d\n", "attempted", r.Attempted, "failed", r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
}

// resultLine is the last line of a run's standard output: exactly the
// keys the benchmark contract fixes.
func (r *report) resultLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range r.defs() {
		out.Metrics[d.name] = value{r.Metrics[d.name], d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(b)
}
