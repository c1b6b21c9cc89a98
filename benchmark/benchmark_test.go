package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"distcoord/internal/nn"
	"distcoord/internal/simnet"
)

// smoke shrinks every workload so its whole path — set-up, timed and
// plain episodes, probe, checks, output — runs in a fraction of a second.
var smoke = sizing{
	paperHorizon:  300,
	simHorizon:    2000,
	scaleNodes:    40,
	scaleHorizon:  60,
	trainEpisodes: 2,
	trainHorizon:  100,
	hidden:        []int{8, 8},
	quickSetup:    true,
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	// 1..100: the median is the 50th sample, p95 the 95th; each reading
	// is unique, so the estimate sits in the middle of its nanosecond.
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50.5}, {0.95, 95.5}, {0.99, 99.5}, {1, 100.5}, {0.001, 1.5}} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Ten samples, eight of which read 7: rank 5 is the 4th of the eight,
	// so the estimate is 7 + (4 - ½)/8.
	ties := []float64{3, 7, 7, 7, 7, 7, 7, 7, 7, 9}
	if got, want := percentile(ties, 0.5), 7+3.5/8; !near(got, want) {
		t.Errorf("percentile(ties, 0.5) = %v, want %v", got, want)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestSamplesBeyond(t *testing.T) {
	// p95 of 200 samples is the 190th: ten lie beyond it. One sample
	// fewer and there are only nine, so the percentile is not reportable.
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{200, 0.95, 10}, {199, 0.95, 9}, {35284, 0.95, 1764}, {1000, 0.99, 10}, {0, 0.95, 0}} {
		if got := samplesBeyond(c.n, c.q); got != c.want {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(ten); !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := quartiles([]float64{1, 2, 4, 8, 16}); !near(q1, 1.5) || !near(q3, 12) {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v, want 1.5, 12", q1, q3)
	}
	if got, want := spread(ten), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	if ten[0] != 10 {
		t.Error("helpers must not reorder their input")
	}
}

func TestSelfTimes(t *testing.T) {
	// episode [0,100] ⊃ decide [10,40] ⊃ {observe [12,15], policy [15,38]}
	//                ⊃ decide [50,70] (no children)
	// and, under a second root, two overlapping children that also
	// outlive their parent: train [0,50] ⊃ {[5,30], [20,60]}.
	spans := []span{
		{Layer: spEpisode, Start: 0, End: 100, Parent: -1},
		{Layer: spDecide, Start: 10, End: 40, Parent: 0},
		{Layer: spObserve, Start: 12, End: 15, Parent: 1},
		{Layer: spPolicy, Start: 15, End: 38, Parent: 1},
		{Layer: spDecide, Start: 50, End: 70, Parent: 0},
		{Layer: spTrain, Start: 0, End: 50, Parent: -1},
		{Layer: spRollout, Start: 5, End: 30, Parent: 5},
		{Layer: spRollout, Start: 20, End: 60, Parent: 5},
	}
	want := []int64{50, 4, 3, 23, 20, 5, 25, 40}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got, want[i])
		}
	}
	layers := selfByLayer(spans, 0)
	if layers[spEpisode] != 50 || layers[spDecide] != 24 || layers[spObserve] != 3 || layers[spPolicy] != 23 || layers[spTrain] != 0 {
		t.Errorf("selfByLayer(episode) = %v", layers)
	}
	if err := checkTiling(layers, 100); err != nil {
		t.Errorf("a well-formed tree must tile: %v", err)
	}
	// A span that was never ended breaks the tiling.
	spans[3].End = 0
	if err := checkTiling(selfByLayer(spans, 0), 100); err == nil {
		t.Error("an unended span must fail the tiling check")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFile pins BENCHMARK.json to the harness: every workload
// and metric it lists is emitted, and the other way round.
func TestBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(raw))
	}
	b, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", b.RunSeconds, runSeconds)
	}

	ws := workloads(full)
	if len(b.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(b.Workloads), len(ws))
	}
	seen := map[string]bool{}
	for i, w := range ws {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or repeated", w.name)
		}
		seen[w.name] = true
	}

	check := func(kind string, listed []benchmarkMetric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness emits %d", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			m := listed[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the harness %+v", kind, i, m, d)
			}
			if !nameRE.MatchString(d.name) || seen[d.name] {
				t.Errorf("metric name %q is malformed or repeated", d.name)
			}
			seen[d.name] = true
			if d.better != "higher" && d.better != "lower" {
				t.Errorf("metric %s: better = %q", d.name, d.better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("metric %s: bound %v outside (0, 0.25]", d.name, m.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("setup_s must be an end-to-end metric")
	}
}

func TestCommittedPolicy(t *testing.T) {
	data, err := os.ReadFile(policyFile())
	if err != nil {
		t.Fatal(err)
	}
	if got := nn.Checksum(data); got != policyChecksum {
		t.Fatalf("%s hashes to %s, the harness pins %s", policyFile(), got, policyChecksum)
	}
	data[len(data)/2] ^= 1
	if _, err := nn.LoadVerified(data, policyChecksum); err == nil {
		t.Error("a checkpoint that differs from the pinned one must be refused")
	}
}

// TestSmoke runs every workload, untraced and traced, at smoke size and
// checks what a run must deliver whatever the machine: a correct
// verdict, every catalogued metric, a well-formed result line, and the
// layer metrics that must be non-zero where the layer works.
func TestSmoke(t *testing.T) {
	mustWork := map[string][]string{
		"paper_inproc":  {"simnet.self_share", "coord.observe_share", "coord.policy_share", "coord.seq_us_per_decision", "coord.deploy_s", "nn.forward_us_k1", "nn.batch_us_per_row_k16", "nn.sample_us_per_row", "nn.flops_per_row", "nn.load_s", "trace.overhead_ratio"},
		"paper_socket":  {"agentnet.rtt_us_p50", "agentnet.wire_us_p50", "agentnet.infer_us_p50", "agentnet.wire_share", "agentnet.dial_s", "agentnet.bytes_per_decision", "coord.observe_share", "nn.forward_us_k1"},
		"scale_burst":   {"simnet.cohort_calls", "simnet.cohort_mean_rows", "simnet.shards2_ratio", "coord.seq_us_per_decision", "coord.deploy_heap_mb", "graph.build_s", "graph.apsp_s", "eval.instantiate_s", "nn.batch_us_per_row_k2", "nn.gflops_k16", "nn.weight_bytes_resident"},
		"sim_heuristic": {"simnet.self_share", "simnet.self_us_per_decision", "simnet.decisions", "simnet.flows", "flowtrace.overhead_ratio", "trace.overhead_ratio"},
		"train_abilene": {"rl.rollout_share", "rl.update_share", "rl.update_us_per_step", "rl.steps", "trace.overhead_ratio"},
	}
	mustIdle := map[string][]string{
		"paper_inproc":  {"agentnet.rtt_us_p50", "rl.steps", "flowtrace.overhead_ratio"},
		"sim_heuristic": {"nn.forward_us_k1", "coord.policy_share", "agentnet.rtt_us_p50"},
		"train_abilene": {"simnet.decisions", "agentnet.rtt_us_p50"},
	}
	for _, w := range workloads(smoke) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				rc := runConfig{seed: 3, seconds: 0.01, trace: trace}
				if trace {
					rc.spans = filepath.Join(t.TempDir(), "spans.jsonl")
				}
				rep, err := w.measure(rc)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("trace=%t: correct=%t attempted=%d failed=%d problems=%v", trace, rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
				}
				checkResultLine(t, rep)
				if !trace {
					for _, d := range endToEnd {
						if rep.Metrics[d.name] <= 0 {
							t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, rep.Metrics[d.name])
						}
					}
					continue
				}
				for _, name := range mustWork[w.name] {
					if rep.Metrics[name] <= 0 {
						t.Errorf("traced %s = %v, want > 0", name, rep.Metrics[name])
					}
				}
				for _, name := range mustIdle[w.name] {
					if rep.Metrics[name] != 0 {
						t.Errorf("traced %s = %v on a workload where that layer does nothing", name, rep.Metrics[name])
					}
				}
				checkSpanFile(t, rc.spans, rep.Info["spans"].(int))
			}
		})
	}
}

// checkResultLine parses the run's last output line the way the driver
// does.
func checkResultLine(t *testing.T, rep *report) {
	t.Helper()
	var out bytes.Buffer
	rep.print(&out)
	if !strings.Contains(out.String(), rep.Workload) {
		t.Errorf("printed report does not name its workload:\n%s", out.String())
	}
	var line struct {
		Correct   *bool  `json:"correct"`
		Attempted *int64 `json:"attempted"`
		Failed    *int64 `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(rep.resultLine()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("result line does not parse: %v\n%s", err, rep.resultLine())
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
		t.Fatalf("result line lacks a key: %s", rep.resultLine())
	}
	if strings.Contains(rep.resultLine(), "\n") {
		t.Error("result line spans several lines")
	}
	defs := rep.defs()
	if len(line.Metrics) != len(defs) {
		t.Errorf("result line has %d metrics, the catalog %d", len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := line.Metrics[d.name]
		if !ok || m.Value == nil || m.Unit != d.unit {
			t.Errorf("result line metric %s = %+v, want a value in %s", d.name, m, d.unit)
		}
	}
}

func checkSpanFile(t *testing.T, path string, want int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != want {
		t.Fatalf("%d span lines, the run recorded %d", len(lines), want)
	}
	for i, l := range lines {
		var s spanJSON
		if err := json.Unmarshal([]byte(l), &s); err != nil {
			t.Fatalf("span line %d: %v", i, err)
		}
		if s.ID != i || s.Name == "" || s.EndNS < s.StartNS || int(s.Parent) >= i {
			t.Fatalf("span line %d is malformed: %s", i, l)
		}
	}
}

// TestChecksFail breaks each correctness check on purpose.
func TestChecksFail(t *testing.T) {
	good := &simnet.Metrics{Arrived: 10, Succeeded: 6, Dropped: 4, Decisions: 50}
	leaky := &simnet.Metrics{Arrived: 10, Succeeded: 6, Dropped: 3, Decisions: 50}

	rep := newReport(runConfig{})
	rep.account("episode", episode{m: good, md5: "aa"}, "aa")
	rep.finish()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted != 50 {
		t.Errorf("a sound episode: correct=%t attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
	}

	rep = newReport(runConfig{})
	rep.account("episode", episode{m: leaky, md5: "aa"}, "aa")
	rep.finish()
	if rep.Correct || rep.Failed != 50 {
		t.Errorf("a pending flow must fail the run and every decision of its episode: correct=%t failed=%d", rep.Correct, rep.Failed)
	}

	// A socket episode at seed 1 against the in-process digest of seed 0.
	rep = newReport(runConfig{})
	rep.account("episode", episode{m: good, md5: "seed1"}, "seed0")
	rep.finish()
	if rep.Correct || rep.Failed != 50 {
		t.Errorf("a foreign digest must fail the run: correct=%t failed=%d", rep.Correct, rep.Failed)
	}

	rep = newReport(runConfig{})
	rep.finish()
	if rep.Correct || rep.Attempted != 1 {
		t.Error("a run that attempted nothing is not correct")
	}

	inproc := &report{Workload: "paper_inproc", Seed: 0, Info: map[string]any{"metrics_md5": "aa"}}
	socket := &report{Workload: "paper_socket", Seed: 0, Info: map[string]any{"metrics_md5": "bb"}}
	if bad := crossCheck([]*report{inproc, socket}); len(bad) != 1 {
		t.Errorf("crossCheck must flag a socket run that differs from the in-process run of its seed, got %v", bad)
	}
	socket.Info["metrics_md5"] = "aa"
	socket2 := &report{Workload: "paper_socket", Seed: 1, Info: map[string]any{"metrics_md5": "cc"}}
	if bad := crossCheck([]*report{inproc, socket, socket2}); len(bad) != 0 {
		t.Errorf("crossCheck compares equal seeds only, got %v", bad)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64, md5 string) string {
		path := filepath.Join(dir, name)
		for _, w := range workloads(full) {
			for seed := int64(0); seed < 4; seed++ {
				rep := newReport(runConfig{seed: seed})
				rep.Workload = w.name
				for i, d := range endToEnd {
					v := float64(100*(i+1)) + float64(seed)
					if d.name == "decisions_per_s" {
						v *= scale
					}
					rep.set(d.name, v)
				}
				rep.Info["metrics_md5"] = md5
				if err := appendRecord(path, rep, "env: test"); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	a := write("a.jsonl", 1, "aa")
	same := write("same.jsonl", 0.99, "aa")
	slow := write("slow.jsonl", 0.5, "aa")
	other := write("other.jsonl", 1, "bb")

	var out bytes.Buffer
	if err := compare(&out, "../BENCHMARK.json", a, same); err != nil {
		t.Errorf("a set 1 %% slower is inside every bound: %v\n%s", err, out.String())
	}
	if n := strings.Count(out.String(), "| yes |"); n != len(workloads(full))*len(endToEnd) {
		t.Errorf("the table has %d rows inside their bound, want one per workload and metric:\n%s", n, out.String())
	}
	if err := compare(&out, "../BENCHMARK.json", a, slow); err == nil {
		t.Error("half the throughput must be outside the bound")
	}
	if err := compare(&out, "../BENCHMARK.json", a, other); err == nil {
		t.Error("a different metrics_md5 for the same seed must fail the comparison")
	}
}
