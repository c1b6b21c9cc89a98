// Command benchmark is the repository's one ruler: five pinned workloads,
// the end-to-end metrics a user of the system sees, and a traced
// per-layer budget, defined in BENCHMARK.json at the repository root.
//
//	go run ./benchmark -workload paper_inproc -seed 0            # untraced: end-to-end metrics
//	go run ./benchmark -workload paper_inproc -seed 0 -trace 1   # traced: per-layer metrics
//	go run ./benchmark -workload all                             # every workload, plus the cross-workload oracle
//	go run ./benchmark -workload all -repeat 10 -out runs.jsonl  # noise floor over seeds 0..9
//	go run ./benchmark -compare a.jsonl b.jsonl                  # is set B inside set A's bounds?
//	go run ./benchmark -make-policy                              # retrain the committed input policy
//
// Every run sets its workload up, measures, checks the outputs, prints
// each metric by name with its unit, and ends its standard output with
// one JSON result line. It exits non-zero when a check fails. See
// README.md for definitions.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

// runSeconds is BENCHMARK.json's run_seconds: the measuring budget the
// episodes of one run share.
const runSeconds = 18

// options are the command line.
type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	spans      string
	repeat     int
	out        string
	makePolicy bool
	compare    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 0, "drives traffic and policy sampling; the program under test only sees the generated scenario")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "measuring budget: plain episodes repeat while they fit")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the separate traced run and reports the per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "with -trace 1: write the recorded spans to this file as JSONL")
	flag.IntVar(&o.repeat, "repeat", 1, "run each workload this many times, on seeds seed..seed+repeat-1, and print median and quartiles")
	flag.StringVar(&o.out, "out", "", "append every run's record to this file as JSONL")
	flag.BoolVar(&o.makePolicy, "make-policy", false, "train the benchmark's input policy and write benchmark/testdata/abilene_2x256.json")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files (arguments: A B) against BENCHMARK.json's bounds")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	switch {
	case o.makePolicy:
		return makePolicy()
	case o.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two files")
		}
		return compare(os.Stdout, "BENCHMARK.json", args[0], args[1])
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace is 0 or 1, got %d", o.trace)
	}
	if o.seconds <= 0 || o.repeat < 1 {
		return fmt.Errorf("-seconds and -repeat must be positive")
	}
	var selected []workload
	for _, w := range workloads(full) {
		if o.workload == w.name || o.workload == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", o.workload)
	}

	env := fingerprint()
	if o.repeat > 1 {
		fmt.Println(env)
	}
	var all []*report
	for _, w := range selected {
		var runs []*report
		for i := 0; i < o.repeat; i++ {
			rep, err := w.measure(runConfig{seed: o.seed + int64(i), seconds: o.seconds, trace: o.trace == 1, spans: o.spans})
			if err != nil {
				return err
			}
			runs = append(runs, rep)
			rep.print(os.Stdout)
			if o.out != "" {
				if err := appendRecord(o.out, rep, env); err != nil {
					return err
				}
			}
			fmt.Println(rep.resultLine())
			// Only here do runs share a process; start each from a clean heap.
			runtime.GC()
			debug.FreeOSMemory()
		}
		if o.repeat > 1 {
			summarize(os.Stdout, runs)
		}
		all = append(all, runs...)
	}

	bad := crossCheck(all)
	for _, r := range all {
		if !r.Correct {
			bad = append(bad, fmt.Sprintf("%s seed %d: %d checks failed", r.Workload, r.Seed, len(r.Problems)))
		}
	}
	for _, b := range bad {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", b)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d correctness checks failed", len(bad))
	}
	return nil
}

// crossCheck is the remote ≡ in-process oracle across workloads: for the
// same seed, paper_socket must reproduce paper_inproc's metrics.
func crossCheck(reports []*report) []string {
	inproc := map[int64]string{}
	for _, r := range reports {
		if r.Workload == "paper_inproc" {
			inproc[r.Seed], _ = r.Info["metrics_md5"].(string)
		}
	}
	var bad []string
	for _, r := range reports {
		if r.Workload != "paper_socket" {
			continue
		}
		if want, ok := inproc[r.Seed]; ok && r.Info["metrics_md5"] != want {
			bad = append(bad, fmt.Sprintf("paper_socket seed %d metrics_md5 %v differs from paper_inproc's %s", r.Seed, r.Info["metrics_md5"], want))
		}
	}
	return bad
}
