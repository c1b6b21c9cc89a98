package coord

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"distcoord/internal/graph"
	"distcoord/internal/rl"
	"distcoord/internal/simnet"
	"distcoord/internal/traffic"
)

// easyScenario returns a two-node scenario (0 -> 1) with ample capacity.
func easyScenario() EnvConfig {
	g := graph.New("pair")
	g.AddNode("", 0, 0)
	g.AddNode("", 0, 1)
	if err := g.AddLink(0, 1, 1); err != nil {
		panic(err)
	}
	g.SetNodeCapacity(0, 10)
	g.SetNodeCapacity(1, 10)
	g.SetLinkCapacity(0, 10)
	svc := &simnet.Service{Name: "one", Chain: []*simnet.Component{
		{Name: "c1", ProcDelay: 5, IdleTimeout: 100, ResourcePerRate: 1},
	}}
	return EnvConfig{
		Graph:        g,
		Service:      svc,
		IngressNodes: []graph.NodeID{0},
		Egress:       1,
		Traffic:      traffic.PoissonSpec(10),
		Template:     simnet.FlowTemplate{Rate: 1, Duration: 1, Deadline: 50},
		Horizon:      300,
	}
}

func TestEnvValidation(t *testing.T) {
	base := easyScenario()
	mutations := map[string]func(*EnvConfig){
		"nil graph":    func(c *EnvConfig) { c.Graph = nil },
		"nil service":  func(c *EnvConfig) { c.Service = nil },
		"no ingress":   func(c *EnvConfig) { c.IngressNodes = nil },
		"no traffic":   func(c *EnvConfig) { c.Traffic = traffic.Spec{} },
		"zero horizon": func(c *EnvConfig) { c.Horizon = 0 },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			cfg := base
			mutate(&cfg)
			if _, err := NewEnv(cfg, 1); err == nil {
				t.Error("NewEnv accepted invalid config")
			}
		})
	}
}

func TestRolloutCollectsTrajectories(t *testing.T) {
	env, err := NewEnv(easyScenario(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	numActions := env.Adapter().NumActions()
	policy := rl.PolicyFunc(func(obs []float64) int { return rng.Intn(numActions) })

	trajs, score, err := env.Rollout(policy)
	if err != nil {
		t.Fatal(err)
	}
	if len(trajs) == 0 {
		t.Fatal("no trajectories collected")
	}
	if score < 0 || score > 1 {
		t.Errorf("score = %f, want in [0,1]", score)
	}
	for ti, tr := range trajs {
		if len(tr.Steps) == 0 {
			t.Fatalf("trajectory %d is empty", ti)
		}
		for si, s := range tr.Steps {
			if len(s.Obs) != env.Adapter().ObsSize() {
				t.Fatalf("traj %d step %d obs size %d", ti, si, len(s.Obs))
			}
			if s.Action < 0 || s.Action >= numActions {
				t.Fatalf("traj %d step %d action %d out of range", ti, si, s.Action)
			}
		}
		// Terminal reward must include +10 or −10.
		last := tr.Steps[len(tr.Steps)-1].Reward
		if math.Abs(last) < 5 {
			t.Fatalf("traj %d terminal reward %f lacks the ±10 terminal signal", ti, last)
		}
	}
}

// TestRewardArithmetic scripts one flow through a known decision sequence
// and verifies the collected rewards match Sec. IV-B3 exactly.
func TestRewardArithmetic(t *testing.T) {
	cfg := easyScenario() // D_G = 1 (single link of delay 1), n_s = 1
	// Exactly one flow (arrival at t=2, horizon 3) so the scripted
	// policy's decisions map 1:1 onto one trajectory.
	cfg.Traffic = traffic.FixedSpec(2)
	cfg.Horizon = 3
	env, err := NewEnv(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Per-decision script: process, keep, keep, forward.
	script := []int{0, 0, 0, 1}
	i := 0
	policy := rl.PolicyFunc(func(obs []float64) int {
		a := script[i%len(script)]
		i++
		return a
	})
	trajs, score, err := env.Rollout(policy)
	if err != nil {
		t.Fatal(err)
	}
	if score != 1 {
		t.Fatalf("score = %f, want 1 (all flows complete)", score)
	}
	if len(trajs) != 1 {
		t.Fatalf("trajectories = %d, want 1", len(trajs))
	}
	for _, tr := range trajs {
		if len(tr.Steps) != 4 {
			t.Fatalf("steps = %d, want 4", len(tr.Steps))
		}
		// Step 1 (process): +1/n_s = +1 (traverse credit lands on the
		// processing decision).
		if math.Abs(tr.Steps[0].Reward-1) > 1e-9 {
			t.Errorf("process step reward = %f, want +1", tr.Steps[0].Reward)
		}
		// Steps 2-3 (keep): −1/D_G = −1 each.
		for k := 1; k <= 2; k++ {
			if math.Abs(tr.Steps[k].Reward+1) > 1e-9 {
				t.Errorf("keep step %d reward = %f, want -1", k, tr.Steps[k].Reward)
			}
		}
		// Step 4 (forward + completion): −d_l/D_G + 10 = −1 + 10 = 9.
		if math.Abs(tr.Steps[3].Reward-9) > 1e-9 {
			t.Errorf("final step reward = %f, want 9", tr.Steps[3].Reward)
		}
	}
}

func TestDropPenaltyAttributed(t *testing.T) {
	cfg := easyScenario()
	env, err := NewEnv(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Always pick an invalid neighbor (node 0 and 1 both have degree 1;
	// action space is Δ+1 = 2, action 1 is valid... so use a scenario
	// where the agent forwards the unprocessed flow forever: 1 ↔ 0).
	// Simplest deterministic drop: keep choosing action 1 from both
	// nodes; the flow ping-pongs until its deadline expires.
	policy := rl.PolicyFunc(func(obs []float64) int { return 1 })
	trajs, score, err := env.Rollout(policy)
	if err != nil {
		t.Fatal(err)
	}
	if score != 0 {
		t.Fatalf("score = %f, want 0 (everything expires)", score)
	}
	for _, tr := range trajs {
		last := tr.Steps[len(tr.Steps)-1].Reward
		if last > -5 {
			t.Fatalf("terminal reward = %f, want ≤ -5 (drop penalty)", last)
		}
	}
}

func TestTrainOnTrivialScenarioBeatsRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke test skipped in -short mode")
	}
	cfg := easyScenario()
	// Tighten the deadline so undirected behavior (keeps, ping-pong)
	// loses flows: random is clearly suboptimal here.
	cfg.Template.Deadline = 12
	res, err := Train(cfg, TrainOptions{
		Episodes:     40,
		ParallelEnvs: 2,
		Seeds:        2,
		Hidden:       []int{32},
		LR:           3e-3,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	coordntr, err := res.Deploy()
	if err != nil {
		t.Fatal(err)
	}

	evalScore := func(c simnet.Coordinator, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		sim, err := simnet.New(simnet.Config{
			Graph:       cfg.Graph,
			Service:     cfg.Service,
			Ingresses:   []simnet.Ingress{{Node: 0, Arrivals: cfg.Traffic.New(rng)}},
			Egress:      cfg.Egress,
			Template:    cfg.Template,
			Horizon:     1000,
			Coordinator: c,
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m.SuccessRatio()
	}

	drl := evalScore(coordntr, 99)
	rng := rand.New(rand.NewSource(3))
	random := evalScore(randomCoord{rng: rng, n: res.Adapter.NumActions()}, 99)
	if drl < random-0.03 {
		t.Errorf("trained DRL %.3f clearly worse than random %.3f", drl, random)
	}
	if drl < 0.85 {
		t.Errorf("trained DRL success ratio = %.3f, want ≥ 0.85 on a trivial scenario", drl)
	}
}

// TrainOptions scale the training procedure of Train.
type TrainOptions struct {
	// Episodes per seed (update iterations).
	Episodes int
	// ParallelEnvs is l in Alg. 1.
	ParallelEnvs int
	// Seeds is k, the number of independently trained agents.
	Seeds int
	// Hidden is the actor and critic architecture.
	Hidden []int
	// LR is the learning rate.
	LR float64
	// Seed is the base random seed.
	Seed int64
}

// TrainResult bundles the trained agent with everything needed to deploy
// it.
type TrainResult struct {
	Agent   *rl.Agent
	Adapter *Adapter
	Stats   rl.TrainResult
}

// Deploy returns the distributed coordinator with the trained policy
// copied to every node (Alg. 1 ln. 14).
func (r *TrainResult) Deploy() (*Distributed, error) {
	return NewDistributed(r.Adapter, r.Agent.Actor)
}

// Train runs the centralized training procedure of Alg. 1 on the given
// scenario: k seeds, each with l parallel environment copies, selecting
// the best agent by final success ratio.
func Train(envCfg EnvConfig, opts TrainOptions) (*TrainResult, error) {
	// Probe the scenario once to size the spaces and fail fast on
	// invalid configurations.
	probe, err := NewEnv(envCfg, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("coord: invalid training scenario: %w", err)
	}
	adapter := probe.Adapter()

	agent, stats, err := rl.Train(rl.TrainConfig{
		Agent: rl.AgentConfig{
			ObsSize:    adapter.ObsSize(),
			NumActions: adapter.NumActions(),
			Hidden:     opts.Hidden,
			LR:         opts.LR,
			Seed:       opts.Seed,
		},
		Episodes:     opts.Episodes,
		ParallelEnvs: opts.ParallelEnvs,
		Seeds:        opts.Seeds,
		LRDecay:      true,
		NewEnv: func(envSeed int64) (rl.Env, error) {
			return NewEnv(envCfg, envSeed)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("coord: training failed: %w", err)
	}
	return &TrainResult{Agent: agent, Adapter: adapter, Stats: stats}, nil
}

type randomCoord struct {
	rng *rand.Rand
	n   int
}

func (randomCoord) Name() string { return "random" }

func (c randomCoord) Decide(*simnet.State, *simnet.Flow, graph.NodeID, float64) int {
	return c.rng.Intn(c.n)
}

func TestDistributedValidation(t *testing.T) {
	cfg := easyScenario()
	env, err := NewEnv(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := rl.NewAgent(rl.AgentConfig{ObsSize: 99, NumActions: 2, Hidden: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDistributed(env.Adapter(), agent.Actor); err == nil {
		t.Error("NewDistributed accepted mismatched actor input size")
	}
}

func TestDistributedDecidesPerNodeCopy(t *testing.T) {
	cfg := easyScenario()
	env, err := NewEnv(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := env.Adapter()
	agent, err := rl.NewAgent(rl.AgentConfig{
		ObsSize: a.ObsSize(), NumActions: a.NumActions(), Hidden: []int{8},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDistributed(a, agent.Actor)
	if err != nil {
		t.Fatal(err)
	}
	d.Stochastic = false // compare argmax decisions across node copies
	st := simnet.NewState(cfg.Graph, a.APSP())
	f := &simnet.Flow{ID: 1, Service: cfg.Service, Egress: 1, Rate: 1, Duration: 1, Deadline: 50}
	act := d.Decide(st, f, 0, 0)
	if act < 0 || act >= a.NumActions() {
		t.Errorf("action %d out of range", act)
	}
	// Same observation through DecideAt must agree (same weights copied).
	obs := a.Observe(st, f, 0, 0)
	if got := d.DecideAt(0, obs); got != act {
		t.Errorf("DecideAt = %d, Decide = %d", got, act)
	}
	if got := d.DecideAt(1, obs); got != act {
		t.Errorf("node 1 copy diverged: %d vs %d (copies must be identical)", got, act)
	}
}

// TestTrajectoriesCarryTerminalReward: every finished flow's trajectory
// ends with a step whose reward includes exactly one terminal ±10.
func TestTrajectoriesCarryTerminalReward(t *testing.T) {
	cfg := easyScenario()
	cfg.Horizon = 600
	env, err := NewEnv(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	n := env.Adapter().NumActions()
	policy := rl.PolicyFunc(func(obs []float64) int { return rng.Intn(n) })
	trajs, _, err := env.Rollout(policy)
	if err != nil {
		t.Fatal(err)
	}
	if len(trajs) == 0 {
		t.Fatal("no trajectories")
	}
	for ti, tr := range trajs {
		// Shaping rewards are bounded well below 10 per step (traverse
		// <= 1, link/keep penalties < 1 each, and at most a handful per
		// step), so |terminal| >= 5 identifies the ±10 reliably — and it
		// must only appear on the final step.
		for si, s := range tr.Steps[:len(tr.Steps)-1] {
			if math.Abs(s.Reward) >= 5 {
				t.Fatalf("traj %d step %d: non-final step carries terminal-scale reward %f", ti, si, s.Reward)
			}
		}
		if last := tr.Steps[len(tr.Steps)-1].Reward; math.Abs(last) < 5 {
			t.Fatalf("traj %d: final reward %f lacks terminal signal", ti, last)
		}
	}
}

func TestDistributedReseedDeterminism(t *testing.T) {
	cfg := easyScenario()
	env, err := NewEnv(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := env.Adapter()
	agent, err := rl.NewAgent(rl.AgentConfig{ObsSize: a.ObsSize(), NumActions: a.NumActions(), Hidden: []int{8}})
	if err != nil {
		t.Fatal(err)
	}
	run := func() (int, int) {
		d, err := NewDistributed(a, agent.Actor)
		if err != nil {
			t.Fatal(err)
		}
		d.Reseed(77)
		st := simnet.NewState(cfg.Graph, a.APSP())
		f := &simnet.Flow{ID: 1, Service: cfg.Service, Egress: 1, Rate: 1, Duration: 1, Deadline: 50}
		return d.Decide(st, f, 0, 0), d.Decide(st, f, 0, 1)
	}
	a1, a2 := run()
	b1, b2 := run()
	if a1 != b1 || a2 != b2 {
		t.Errorf("reseeded coordinators diverged: (%d,%d) vs (%d,%d)", a1, a2, b1, b2)
	}
}

// TestEnvMultiServiceRollout: the training environment handles service
// mixes (per-flow chain lengths differ).
func TestEnvMultiServiceRollout(t *testing.T) {
	cfg := easyScenario()
	short := cfg.Service
	long := &simnet.Service{Name: "long", Chain: []*simnet.Component{
		{Name: "l1", ProcDelay: 2, IdleTimeout: 100, ResourcePerRate: 0.2},
		{Name: "l2", ProcDelay: 2, IdleTimeout: 100, ResourcePerRate: 0.2},
	}}
	cfg.Service = nil
	cfg.Services = []simnet.WeightedService{
		{Service: short, Weight: 1},
		{Service: long, Weight: 1},
	}
	env, err := NewEnv(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	n := env.Adapter().NumActions()
	trajs, score, err := env.Rollout(rl.PolicyFunc(func([]float64) int { return rng.Intn(n) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(trajs) == 0 || score < 0 || score > 1 {
		t.Fatalf("trajs=%d score=%f", len(trajs), score)
	}
}
