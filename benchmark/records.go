package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// fingerprint describes the machine a set of runs came from, so numbers
// from different machines are never compared blindly.
func fingerprint() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	load := "unknown"
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		load = strings.Join(strings.Fields(string(data))[:3], " ")
	}
	return fmt.Sprintf("env: %s %s/%s nproc=%d GOMAXPROCS=%d cpu=%q loadavg=%q",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, load)
}

// record is one line of an -out file.
type record struct {
	report
	Env string `json:"env"`
}

func appendRecord(path string, rep *report, env string) (err error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return json.NewEncoder(f).Encode(record{*rep, env})
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// summarize prints the noise floor of repeated runs of one workload:
// median, quartiles and the inter-quartile spread as a share of the
// median, per metric.
func summarize(w io.Writer, runs []*report) {
	fmt.Fprintf(w, "== %s: %d runs, seeds %d..%d\n", runs[0].Workload, len(runs), runs[0].Seed, runs[len(runs)-1].Seed)
	fmt.Fprintf(w, "%-30s %14s %14s %14s %8s\n", "metric", "median", "q1", "q3", "spread")
	for _, d := range runs[0].defs() {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = r.Metrics[d.name]
		}
		q1, q3 := quartiles(vals)
		fmt.Fprintf(w, "%-30s %14.6g %14.6g %14.6g %7.2f%%\n", d.name, median(vals), q1, q3, 100*spread(vals))
	}
}

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// compare prints, as a markdown table, every end-to-end metric of two
// independent sets of runs of one commit: each set's median and spread,
// how much worse B's median is than A's, and whether that is inside the
// metric's bound. Counts that must repeat exactly for a seed are compared
// per seed. It fails when anything is outside.
func compare(w io.Writer, benchPath, pathA, pathB string) error {
	bench, err := readBenchmarkFile(benchPath)
	if err != nil {
		return err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	values := func(rs []record, workload, metric string, trace bool) []float64 {
		var out []float64
		for _, r := range rs {
			if r.Workload == workload && r.Trace == trace {
				out = append(out, r.Metrics[metric])
			}
		}
		return out
	}

	if len(a) > 0 && len(b) > 0 {
		fmt.Fprintf(w, "Set A: `%s`\n\nSet B: `%s`\n\n", a[0].Env, b[0].Env)
	}
	fmt.Fprintln(w, "| workload | metric | unit | A median | A spread | B median | B spread | B worse by | bound | inside |")
	fmt.Fprintln(w, "|---|---|---|---:|---:|---:|---:|---:|---:|---|")
	outside := 0
	for _, wl := range bench.Workloads {
		for _, m := range bench.EndToEnd {
			va, vb := values(a, wl.Name, m.Name, false), values(b, wl.Name, m.Name, false)
			if len(va) < 2 || len(vb) < 2 {
				return fmt.Errorf("%s %s: need at least two runs in each set, have %d and %d", wl.Name, m.Name, len(va), len(vb))
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			ok := worse <= m.Bound && spread(va) <= m.Bound && spread(vb) <= m.Bound
			if m.Name == "setup_s" { // the spread of set-up time is not gated
				ok = worse <= m.Bound
			}
			verdict := "yes"
			if !ok {
				verdict = "**NO**"
				outside++
			}
			fmt.Fprintf(w, "| %s | %s | %s | %.6g | %.2f%% | %.6g | %.2f%% | %+.2f%% | %.0f%% | %s |\n",
				wl.Name, m.Name, m.Unit, ma, 100*spread(va), mb, 100*spread(vb), 100*worse, 100*m.Bound, verdict)
		}
	}

	// What a seed determines must be bit-equal between the sets.
	exact := map[string]map[string]bool{}
	for _, set := range [][]record{a, b} {
		for _, r := range set {
			key := fmt.Sprintf("%s seed %d trace %t", r.Workload, r.Seed, r.Trace)
			sig := fmt.Sprint(r.Info["metrics_md5"], r.Info["records_md5"], r.Info["decisions"], r.Info["steps"], r.Info["success_ratio"], r.Info["best_score"])
			if exact[key] == nil {
				exact[key] = map[string]bool{}
			}
			exact[key][sig] = true
		}
	}
	var differ []string
	for key, sigs := range exact {
		if len(sigs) > 1 {
			differ = append(differ, key)
		}
	}
	sort.Strings(differ)
	fmt.Fprintf(w, "\nSeed-determined outputs (metrics_md5, records_md5, decisions, steps, success_ratio, best_score) compared over %d (workload, seed, mode) cells: %d differ.\n", len(exact), len(differ))
	for _, d := range differ {
		fmt.Fprintf(w, "- differs: %s\n", d)
	}
	if outside > 0 || len(differ) > 0 {
		return fmt.Errorf("%d metrics outside their bound, %d seed-determined outputs differ", outside, len(differ))
	}
	return nil
}
