// Package distcoord's root benchmarks regenerate every table and figure
// of the paper's evaluation (Sec. V) at reduced scale, so that
// `go test -bench=.` exercises the full experiment pipeline end to end.
// Success ratios are attached to each benchmark via ReportMetric; full
// paper-scale runs (30 seeds, horizon 20000, 2x256 networks) are driven
// by cmd/experiments -paper.
//
// Benchmark map (see DESIGN.md §3):
//
//	BenchmarkTableI   — Table I topology statistics
//	BenchmarkFig6a-d  — success vs. load per arrival pattern
//	BenchmarkFig7     — success and delay vs. deadline
//	BenchmarkFig8a    — generalization to unseen traffic
//	BenchmarkFig8b    — generalization to unseen load
//	BenchmarkFig9a    — success on large topologies
//	BenchmarkFig9b    — per-decision coordination time
//
// plus ablations (reward shaping, observation normalization). Speed is
// measured by the harness in benchmark/ (`go run ./benchmark`).
package distcoord

import (
	"testing"

	"distcoord/internal/coord"
	"distcoord/internal/eval"
	"distcoord/internal/graph"
	"distcoord/internal/rl"
	"distcoord/internal/traffic"
)

// benchOptions is the reduced experiment scale used by the figure
// benchmarks: large enough to exercise every code path (training,
// deployment, multi-seed evaluation of all four algorithms), small
// enough to finish within benchmark time budgets.
func benchOptions() eval.Options {
	return eval.Options{
		EvalSeeds:       1,
		Horizon:         600,
		MonitorInterval: 100,
		Budget: eval.TrainBudget{
			Episodes:     6,
			ParallelEnvs: 1,
			Seeds:        1,
			Horizon:      250,
			Hidden:       []int{16},
		},
	}
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := graph.TableIRows(graph.Topologies())
		if len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// benchFig6 runs the Fig. 6 pipeline for one arrival pattern.
func benchFig6(b *testing.B, variant string) {
	b.Helper()
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := eval.Fig6(variant, opts)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, fig)
	}
}

func BenchmarkFig6a(b *testing.B) { benchFig6(b, "a") }
func BenchmarkFig6b(b *testing.B) { benchFig6(b, "b") }
func BenchmarkFig6c(b *testing.B) { benchFig6(b, "c") }
func BenchmarkFig6d(b *testing.B) { benchFig6(b, "d") }

func BenchmarkFig7(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := eval.Fig7(opts)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, fig)
	}
}

func BenchmarkFig8a(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := eval.Fig8a(opts)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, fig)
	}
}

func BenchmarkFig8b(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := eval.Fig8b(opts)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, fig)
	}
}

func BenchmarkFig9a(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := eval.Fig9a(opts)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, fig)
	}
}

func BenchmarkFig9b(b *testing.B) {
	opts := benchOptions()
	opts.Budget.Hidden = []int{64, 64}
	for i := 0; i < b.N; i++ {
		rows, err := eval.Fig9b(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
		// Report the headline quantities: distributed per-decision cost
		// on the largest network vs. the central update there.
		b.ReportMetric(float64(rows[3].DistDRL.Nanoseconds()), "distdrl-ns/decision")
		b.ReportMetric(float64(rows[3].Central.Nanoseconds()), "central-ns/update")
	}
}

// reportFigure attaches the DistDRL mean success of the last x-position
// as a benchmark metric, so regressions in coordination quality are
// visible in benchmark output.
func reportFigure(b *testing.B, fig eval.Figure) {
	b.Helper()
	for _, s := range fig.Series {
		if len(s.Points) == 0 {
			b.Fatalf("series %s has no points", s.Algo)
		}
	}
	last := fig.Series[0].Points[len(fig.Series[0].Points)-1]
	b.ReportMetric(last.Outcome.Succ.Mean, "success")
}

// BenchmarkAblationRewardShaping trains twice — with and without the
// shaped auxiliary rewards of Sec. IV-B3 — and reports both resulting
// success ratios. The paper motivates shaping as necessary against the
// sparse ±10 terminal signal.
func BenchmarkAblationRewardShaping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		shaped := trainAblation(b, true, true)
		sparse := trainAblation(b, false, true)
		b.ReportMetric(shaped, "shaped-success")
		b.ReportMetric(sparse, "sparse-success")
	}
}

// BenchmarkAblationNormalization trains with and without the [-1,1]
// observation normalization of Sec. IV-B1.
func BenchmarkAblationNormalization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		norm := trainAblation(b, true, true)
		raw := trainAblation(b, true, false)
		b.ReportMetric(norm, "normalized-success")
		b.ReportMetric(raw, "raw-success")
	}
}

// trainAblation trains a small agent on the base scenario with the given
// reward-shaping and normalization settings and returns its final
// training success ratio.
func trainAblation(b *testing.B, shaping, normalize bool) float64 {
	b.Helper()
	s := eval.Base()
	inst, err := s.Instantiate(0)
	if err != nil {
		b.Fatal(err)
	}
	rewards := coord.DefaultRewards()
	rewards.Shaping = shaping

	mkEnv := func(envSeed int64) (*coord.Env, error) {
		env, err := coord.NewEnv(coord.EnvConfig{
			Graph:        inst.Graph,
			APSP:         inst.APSP,
			Service:      inst.Service,
			IngressNodes: s.Ingresses(),
			Egress:       s.Egress,
			Traffic:      traffic.PoissonSpec(10),
			Template:     inst.Template,
			Horizon:      250,
			Rewards:      rewards,
		}, envSeed)
		if err != nil {
			return nil, err
		}
		env.Adapter().Normalize = normalize
		return env, nil
	}
	probeEnv, err := mkEnv(0)
	if err != nil {
		b.Fatal(err)
	}
	adapter := probeEnv.Adapter()
	_, stats, err := rl.Train(rl.TrainConfig{
		Agent: rl.AgentConfig{
			ObsSize:    adapter.ObsSize(),
			NumActions: adapter.NumActions(),
			Hidden:     []int{16},
			LR:         3e-3,
		},
		Episodes:     80,
		ParallelEnvs: 2,
		Seeds:        1,
		LRDecay:      true,
		NewEnv:       func(envSeed int64) (rl.Env, error) { return mkEnv(envSeed) },
	})
	if err != nil {
		b.Fatal(err)
	}
	return stats.BestScore
}
