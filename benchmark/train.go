package main

import (
	"crypto/md5"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"distcoord/internal/coord"
	"distcoord/internal/eval"
	"distcoord/internal/rl"
)

// trainBudget pins the training seed. What a training step costs depends
// on how often the trust-region guard rolls an update back and retakes
// it, and the seed decides that (steps per second ranged 1273–1509 over
// seeds 0–9), so a seed-driven training run cannot be compared across
// seeds within any useful bound. Like scale_burst, whose burst arrivals
// have no randomness, this workload runs the same inputs on every seed.
func (sz sizing) trainBudget() eval.TrainBudget {
	return eval.TrainBudget{
		Episodes:     sz.trainEpisodes,
		ParallelEnvs: 2,
		Seeds:        1,
		Horizon:      sz.trainHorizon,
		Hidden:       sz.hidden,
		LR:           1e-3,
		Seed:         7,
	}
}

// trainConfig is eval.TrainDRL's call into rl.Train, rebuilt from public
// functions so the harness can put a wrapper around each environment.
// TrainDRL takes no such hook; the records of the two must be equal, or
// the wrapped run measured a different computation.
func trainConfig(s eval.Scenario, b eval.TrainBudget, wrap func(rl.Env) rl.Env) (rl.TrainConfig, error) {
	probe, err := s.Instantiate(0)
	if err != nil {
		return rl.TrainConfig{}, err
	}
	adapter := coord.NewAdapter(probe.Graph, probe.APSP)
	return rl.TrainConfig{
		Agent: rl.AgentConfig{
			ObsSize:    adapter.ObsSize(),
			NumActions: adapter.NumActions(),
			Hidden:     b.Hidden,
			LR:         b.LR,
			Seed:       b.Seed,
		},
		Episodes:     b.Episodes,
		ParallelEnvs: b.ParallelEnvs,
		Seeds:        b.Seeds,
		LRDecay:      true,
		OnEpisode:    b.OnEpisode,
		NewEnv: func(envSeed int64) (rl.Env, error) {
			inst, err := s.Instantiate(1_000_003 + envSeed)
			if err != nil {
				return nil, err
			}
			env, err := coord.NewEnv(coord.EnvConfig{
				Graph:        inst.Graph,
				APSP:         inst.APSP,
				Service:      inst.Service,
				IngressNodes: s.Ingresses(),
				Egress:       s.Egress,
				Traffic:      s.Traffic,
				Template:     inst.Template,
				Horizon:      b.Horizon,
			}, envSeed)
			if err != nil {
				return nil, err
			}
			return wrap(env), nil
		},
	}, nil
}

// buildTraining is the part of training's set-up that public functions
// reach: the scenario, the agent and the environment copies. It returns
// what it built so the heap measurement sees it live.
func buildTraining(s eval.Scenario, b eval.TrainBudget) (any, error) {
	cfg, err := trainConfig(s, b, func(e rl.Env) rl.Env { return e })
	if err != nil {
		return nil, err
	}
	agent, err := rl.NewAgent(cfg.Agent)
	if err != nil {
		return nil, err
	}
	envs := make([]rl.Env, b.ParallelEnvs)
	for i := range envs {
		if envs[i], err = cfg.NewEnv(cfg.Agent.Seed*1000 + int64(i)); err != nil {
			return nil, err
		}
	}
	return []any{agent, envs}, nil
}

// watchedEnv times one environment copy from outside: each Rollout call
// and, inside it, each action selection. Every copy runs on its own
// goroutine and only touches its own samples.
type watchedEnv struct {
	inner    rl.Env
	t0       time.Time
	rollouts [][2]int64 // start, end per episode
	selectNS []float64
}

func (e *watchedEnv) Rollout(p rl.Policy) ([]rl.Trajectory, float64, error) {
	start := time.Since(e.t0)
	trajs, score, err := e.inner.Rollout(rl.PolicyFunc(func(obs []float64) int {
		t := time.Now()
		a := p.SelectAction(obs)
		e.selectNS = append(e.selectNS, float64(time.Since(t)))
		return a
	}))
	e.rollouts = append(e.rollouts, [2]int64{int64(start), int64(time.Since(e.t0))})
	return trajs, score, err
}

// trainRun is one training call seen from outside.
type trainRun struct {
	wall    time.Duration
	records []rl.EpisodeRecord
	ends    []int64 // OnEpisode callback time per record
	steps   int
	score   float64
}

// recordsMD5 digests what training computed, without the wall-clock
// fields.
func recordsMD5(records []rl.EpisodeRecord) string {
	clean := append([]rl.EpisodeRecord(nil), records...)
	for i := range clean {
		clean[i].RolloutMS, clean[i].UpdateMS = 0, 0
	}
	data, err := json.Marshal(clean)
	if err != nil {
		panic(err) // Load rejects non-finite weights; losses of a finite net are finite
	}
	return fmt.Sprintf("%x", md5.Sum(data))
}

// train runs do (eval.TrainDRL or rl.Train) and collects its episode
// records. Seeds:1, so OnEpisode is called from one goroutine.
func train(b *eval.TrainBudget, t0 time.Time, do func() (float64, error)) (trainRun, error) {
	var run trainRun
	b.OnEpisode = func(r rl.EpisodeRecord) {
		run.records = append(run.records, r)
		run.ends = append(run.ends, int64(time.Since(t0)))
		run.steps += r.Steps
	}
	start := time.Now()
	score, err := do()
	run.wall = time.Since(start)
	run.score = score
	return run, err
}

// runTrain measures centralized training. The plain run is one
// eval.TrainDRL call; the watched run is the same computation with each
// environment copy wrapped, which yields the decision latencies
// (untraced) and the rollout/update spans (traced).
func runTrain(rc runConfig, sz sizing) (*report, error) {
	rep := newReport(rc)
	s := eval.Base()
	if err := measureTraining(rep, rc, sz, s); err != nil {
		return nil, err
	}
	if !rc.trace {
		// Training has no set-up call of its own; this is the part of it
		// that public functions reach, sampled like any other set-up.
		var built any
		samples := setupSamples{plan: sz.plan(trainSetup)}
		for !samples.done() {
			err := samples.take(func() (err error) {
				built, err = buildTraining(s, sz.trainBudget())
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		runtime.KeepAlive(built)
		samples.report(rep)
	}
	rep.finish()
	return rep, nil
}

func measureTraining(rep *report, rc runConfig, sz sizing, s eval.Scenario) error {
	// The watched run.
	t0 := time.Now()
	var envs []*watchedEnv
	wb := sz.trainBudget()
	watched, err := train(&wb, t0, func() (float64, error) {
		cfg, err := trainConfig(s, wb, func(e rl.Env) rl.Env {
			w := &watchedEnv{inner: e, t0: t0}
			envs = append(envs, w)
			return w
		})
		if err != nil {
			return 0, err
		}
		_, res, err := rl.Train(cfg)
		return res.BestScore, err
	})
	if err != nil {
		return err
	}
	trainEnd := int64(time.Since(t0))

	// The plain run: the program's own entry point.
	pb := sz.trainBudget()
	plain, err := train(&pb, t0, func() (float64, error) {
		p, err := eval.TrainDRL(s, pb)
		if err != nil {
			return 0, err
		}
		return p.Stats.BestScore, nil
	})
	if err != nil {
		return err
	}

	rep.Attempted = int64(watched.steps + plain.steps)
	wmd5, pmd5 := recordsMD5(watched.records), recordsMD5(plain.records)
	if wmd5 != pmd5 {
		rep.problem("watched training records %s differ from eval.TrainDRL's %s: it did different work", wmd5, pmd5)
		rep.Failed = rep.Attempted
	}
	rep.Info["records_md5"] = pmd5
	rep.Info["steps"] = plain.steps
	rep.Info["episodes"] = len(plain.records)
	rep.Info["best_score"] = plain.score
	plainRate := float64(plain.steps) / plain.wall.Seconds()

	if !rc.trace {
		var ns []float64
		for _, e := range envs {
			ns = append(ns, e.selectNS...)
		}
		sort.Float64s(ns)
		rep.set("decisions_per_s", plainRate)
		rep.set("decide_p50_us", us(percentile(ns, 0.50)))
		rep.set("decide_p95_us", us(percentile(ns, 0.95)))
		rep.Info["decide_p99_us"] = us(percentile(ns, 0.99))
		rep.Info["decide_samples"] = len(ns)
		rep.Info["decide_samples_beyond_p95"] = samplesBeyond(len(ns), 0.95)
		return nil
	}

	// Spans: train ⊃ rl.episode ⊃ {rl.rollout, rl.update}. The rollout
	// span of an episode is the phase from the first copy's start to the
	// last copy's end (the trainer waits for all of them), so the spans
	// tile; the update span is the duration the trainer reports in its
	// record, ending when the record arrives.
	rec := newRecorder(3*len(watched.records) + 1)
	root := rec.add(spTrain, 0, trainEnd, -1)
	backtracks := 0
	for i, r := range watched.records {
		lo, hi := envs[0].rollouts[i][0], envs[0].rollouts[i][1]
		for _, e := range envs[1:] {
			if e.rollouts[i][0] < lo {
				lo = e.rollouts[i][0]
			}
			if e.rollouts[i][1] > hi {
				hi = e.rollouts[i][1]
			}
		}
		end := watched.ends[i]
		ep := rec.add(spRLEpisode, lo, end, root)
		rec.add(spRollout, lo, hi, ep)
		rec.add(spUpdate, end-int64(r.UpdateMS*1e6), end, ep)
		if r.Backtracked {
			backtracks++
		}
	}
	layers := selfByLayer(rec.spans, root)
	if err := checkTiling(layers, trainEnd); err != nil {
		rep.problem("training spans: %v", err)
	}
	wall := float64(trainEnd)
	rep.set("rl.rollout_share", float64(layers[spRollout])/wall)
	rep.set("rl.update_share", float64(layers[spUpdate])/wall)
	rep.set("rl.update_us_per_step", us(float64(layers[spUpdate]))/float64(watched.steps))
	rep.set("rl.steps", float64(watched.steps))
	rep.set("rl.backtracks", float64(backtracks))
	rep.Info["rl.other_share"] = float64(layers[spTrain]+layers[spRLEpisode]) / wall
	rep.set("trace.overhead_ratio", plainRate/(float64(watched.steps)/watched.wall.Seconds()))
	rep.Info["plain_decisions_per_s"] = plainRate
	rep.Info["spans"] = len(rec.spans)
	if rc.spans != "" {
		return writeSpans(rc.spans, rec.spans)
	}
	return nil
}
