package main

import (
	"bytes"
	"fmt"
	"os"

	"distcoord/internal/agentnet"
	"distcoord/internal/baselines"
	"distcoord/internal/coord"
	"distcoord/internal/eval"
	"distcoord/internal/graph"
	"distcoord/internal/nn"
	"distcoord/internal/rl"
	"distcoord/internal/simnet"
	"distcoord/internal/traffic"
)

// sizing pins the work of every workload. The measured runs use full;
// the tests shrink it so each workload's whole path runs in well under
// a second. Nothing here is calibrated at run time.
type sizing struct {
	paperHorizon  float64
	simHorizon    float64
	scaleNodes    int
	scaleHorizon  float64
	trainEpisodes int
	trainHorizon  float64
	hidden        []int
	// trained selects the committed checkpoint for the paper_*
	// workloads; tests deploy an untrained actor of the hidden shape.
	trained bool
	// quickSetup shrinks every setupPlan to two samples of two (tests).
	quickSetup bool
}

// setupPlan is how a workload's set-up is sampled in a run: setup_s is
// the median over samples, each the mean of batch back-to-back set-ups.
// An expensive set-up (the scale point: ~1 s, 1.3 GB) is its own sample.
// A cheap one allocates little, so whether a garbage collection falls
// into a single set-up decides its time; a batch long enough to hold
// several collections amortises them, as a long-running driver would.
type setupPlan struct{ samples, batch int }

var (
	scaleSetup = setupPlan{5, 1}
	paperSetup = setupPlan{15, 1}
	trainSetup = setupPlan{11, 20}
	simSetup   = setupPlan{11, 500}
)

func (sz sizing) plan(p setupPlan) setupPlan {
	if sz.quickSetup {
		return setupPlan{2, 2}
	}
	return p
}

var full = sizing{
	paperHorizon:  10000,
	simHorizon:    200000,
	scaleNodes:    1000,
	scaleHorizon:  400,
	trainEpisodes: 8,
	trainHorizon:  1000,
	hidden:        []int{256, 256},
	trained:       true,
}

// workload is one pinned set of inputs. Names are fixed: later issues
// cite them.
type workload struct {
	name string
	why  string
	run  func(rc runConfig) (*report, error)
}

// measure runs the workload once and names the report.
func (w workload) measure(rc runConfig) (*report, error) {
	rep, err := w.run(rc)
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", w.name, rc.seed, err)
	}
	rep.Workload = w.name
	return rep, nil
}

func workloads(sz sizing) []workload {
	eps := func(setup setupFunc, p setupPlan) func(runConfig) (*report, error) {
		return func(rc runConfig) (*report, error) { return runEpisodic(rc, setup, sz.plan(p)) }
	}
	return []workload{
		{
			name: "paper_inproc",
			why:  "the paper's deployment: Abilene, trained 2x256 actor per node, sequential stochastic Decide; single-row nn inference is ~99 % of the wall",
			run:  eps(sz.setupPaperInproc, paperSetup),
		},
		{
			name: "paper_socket",
			why:  "same scenario decided over loopback TCP by 2 agentnet servers; the only workload where encode, wire and decode do work",
			run: func(rc runConfig) (*report, error) {
				boot, err := sz.bootCheckpoint()
				if err != nil {
					return nil, err
				}
				return runEpisodic(rc, sz.setupPaperSocket(boot), sz.plan(paperSetup))
			},
		},
		{
			name: "scale_burst",
			why:  "1000-node synthetic graph, bursts of 16, batched argmax: the SIMD batch kernel and gather window work, and set-up (1000 clones, APSP) is real",
			run:  eps(sz.setupScaleBurst, scaleSetup),
		},
		{
			name: "sim_heuristic",
			why:  "GCASP on Abilene with 5 ingresses, no NN: simnet's event loop is ~80 % of the wall, invisible on the DRL workloads",
			run:  eps(sz.setupSimHeuristic, simSetup),
		},
		{
			name: "train_abilene",
			why:  "centralized training from a fresh agent: backward pass and optimiser are ~90 % of the wall, so inference-only layouts that need re-syncing cost here",
			run:  func(rc runConfig) (*report, error) { return runTrain(rc, sz) },
		},
	}
}

// deployment is what one set-up produces: everything up to the point
// where the coordinator can take its first decision.
type deployment struct {
	inst *eval.Instance
	opts eval.RunOptions
	// coordinator is the bare coordinator under test. It is nil after a
	// probe set-up of an in-process DRL workload, which deploys bank (the
	// same clones, reachable through public functions) instead.
	coordinator simnet.Coordinator
	adapter     *coord.Adapter
	actor       *nn.MLP
	bank        *coord.PolicyBank
	stochastic  bool
	copies      int // deployed actor copies, for nn.weight_bytes_resident
	// deployAllocMB is what deploying allocated (traced set-ups only).
	deployAllocMB float64

	// Socket deployments.
	checkpoint []byte
	servers    []*agentnet.Server
	endpoints  []string
	remote     *coord.Remote
	failed     int64 // transport-failed decisions of already closed remotes
	reconnects int64
}

// setupFunc sets a workload up for seed. rec may be nil (untraced); a
// probe set-up deploys what the probe coordinator needs.
type setupFunc func(seed int64, rec *recorder, probe bool) (*deployment, error)

func (d *deployment) close() {
	d.dropRemote()
	for _, s := range d.servers {
		s.Close()
	}
}

func (d *deployment) dropRemote() {
	if d.remote == nil {
		return
	}
	_, failed := d.remote.Pool().DecideStats()
	d.failed += failed
	for i := 0; i < d.remote.Pool().NumAgents(); i++ {
		d.reconnects += d.remote.Pool().Agent(i).Reconnects()
	}
	d.remote.Close()
	d.remote = nil
}

// prepare resets the coordinator's sampling streams so every episode of
// a seed does identical work. Remote streams live in the agents'
// sessions and restart from the handshake seed, so a remote episode
// gets a fresh session (the model is already deployed: no push).
func (d *deployment) prepare(seed int64) error {
	switch c := d.coordinator.(type) {
	case *coord.Distributed:
		c.Reseed(seed)
	case *coord.Remote:
		d.dropRemote()
		return d.dial(seed)
	}
	if d.bank != nil {
		d.bank.Reseed(seed)
	}
	return nil
}

func (d *deployment) dial(seed int64) error {
	r, err := coord.NewRemote(d.adapter, d.endpoints, seed, coord.RemoteOptions{
		Stochastic: true,
		Checkpoint: d.checkpoint,
	})
	if err != nil {
		return err
	}
	d.remote, d.coordinator = r, r
	return nil
}

func (sz sizing) paperScenario() eval.Scenario {
	s := eval.Base()
	s.Horizon = sz.paperHorizon
	return s
}

func instantiate(rec *recorder, parent int, s eval.Scenario, seed int64) (*eval.Instance, error) {
	sp := rec.begin(spInstantiate, parent, -1)
	defer rec.end(sp)
	return s.Instantiate(seed)
}

func newAdapter(rec *recorder, parent int, inst *eval.Instance) *coord.Adapter {
	sp := rec.begin(spDeploy, parent, -1)
	defer rec.end(sp)
	return coord.NewAdapter(inst.Graph, inst.APSP)
}

// untrainedActor returns a freshly initialised actor for the adapter's
// spaces, with rl.NewAgent's default seed.
func (sz sizing) untrainedActor(a *coord.Adapter) (*nn.MLP, error) {
	agent, err := rl.NewAgent(rl.AgentConfig{
		ObsSize:    a.ObsSize(),
		NumActions: a.NumActions(),
		Hidden:     sz.hidden,
	})
	if err != nil {
		return nil, err
	}
	return agent.Actor, nil
}

// untrainedCheckpoint is untrainedActor with its serialised form.
func (sz sizing) untrainedCheckpoint(a *coord.Adapter) ([]byte, *nn.MLP, error) {
	actor, err := sz.untrainedActor(a)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := actor.Save(&buf); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), actor, nil
}

// loadPolicy reads and verifies the committed checkpoint. The harness
// refuses any other bytes.
func (sz sizing) loadPolicy(rec *recorder, parent int, a *coord.Adapter) ([]byte, *nn.MLP, error) {
	sp := rec.begin(spLoad, parent, -1)
	defer rec.end(sp)
	if !sz.trained {
		return sz.untrainedCheckpoint(a)
	}
	data, err := os.ReadFile(policyFile())
	if err != nil {
		return nil, nil, fmt.Errorf("reading the benchmark policy (go run ./benchmark -make-policy recreates it): %w", err)
	}
	actor, err := nn.LoadVerified(data, policyChecksum)
	if err != nil {
		return nil, nil, fmt.Errorf("benchmark policy %s: %w", policyFile(), err)
	}
	return data, actor, nil
}

// deployInproc puts one actor copy at every node. A probe set-up
// deploys the bank NewDistributed would wrap.
func deployInproc(rec *recorder, parent int, d *deployment, seed int64, probe bool) error {
	if rec != nil {
		before := totalAlloc()
		defer func() { d.deployAllocMB = float64(totalAlloc()-before) / 1e6 }()
	}
	sp := rec.begin(spDeploy, parent, -1)
	defer rec.end(sp)
	d.copies = d.adapter.Graph().NumNodes()
	if probe {
		bank, err := coord.NewPolicyBank(d.actor, d.copies, nil, d.adapter.ObsSize(), d.adapter.NumActions())
		if err != nil {
			return err
		}
		bank.Reseed(seed)
		d.bank = bank
		return nil
	}
	c, err := coord.NewDistributed(d.adapter, d.actor)
	if err != nil {
		return err
	}
	c.Stochastic = d.stochastic
	c.Reseed(seed)
	d.coordinator = c
	return nil
}

func (sz sizing) setupPaperInproc(seed int64, rec *recorder, probe bool) (*deployment, error) {
	root := rec.begin(spSetup, -1, -1)
	defer rec.end(root)
	inst, err := instantiate(rec, root, sz.paperScenario(), seed)
	if err != nil {
		return nil, err
	}
	d := &deployment{inst: inst, stochastic: true, adapter: newAdapter(rec, root, inst)}
	if _, d.actor, err = sz.loadPolicy(rec, root, d.adapter); err != nil {
		return nil, err
	}
	return d, deployInproc(rec, root, d, seed, probe)
}

// socketAgents is the number of goroutine-hosted agent servers: two, so
// that driver plus agents never exceed the two cores of the reference
// machine (one request is in flight at a time).
const socketAgents = 2

// setupPaperSocket boots the agents with boot, whatever model they had
// before; the driver then pushes the policy under test, as a deployment
// does.
func (sz sizing) setupPaperSocket(boot []byte) setupFunc {
	return func(seed int64, rec *recorder, probe bool) (*deployment, error) {
		root := rec.begin(spSetup, -1, -1)
		defer rec.end(root)
		inst, err := instantiate(rec, root, sz.paperScenario(), seed)
		if err != nil {
			return nil, err
		}
		d := &deployment{inst: inst, stochastic: true, adapter: newAdapter(rec, root, inst)}
		if d.checkpoint, d.actor, err = sz.loadPolicy(rec, root, d.adapter); err != nil {
			return nil, err
		}
		d.copies = d.adapter.Graph().NumNodes()

		sp := rec.begin(spDial, root, -1)
		defer rec.end(sp)
		for i := 0; i < socketAgents; i++ {
			host, err := coord.NewAgentHost(fmt.Sprintf("bench-agent-%d", i), boot, "", nil)
			if err != nil {
				d.close()
				return nil, err
			}
			srv := agentnet.NewServer(host.NewBackend, agentnet.ServerConfig{})
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				d.close()
				return nil, err
			}
			d.servers = append(d.servers, srv)
			d.endpoints = append(d.endpoints, addr.String())
		}
		if err := d.dial(seed); err != nil {
			d.close()
			return nil, err
		}
		return d, nil
	}
}

// bootCheckpoint serialises an untrained actor of the policy's shape
// (Abilene's observation and action spaces).
func (sz sizing) bootCheckpoint() ([]byte, error) {
	data, _, err := sz.untrainedCheckpoint(coord.NewAdapter(graph.Abilene(), nil))
	return data, err
}

// scaleScenario is the cmd/bench -scale point: an n-node synthetic
// topology with uniform capacities and bursts of 16 simultaneous flows
// per ingress every 20 time units, so same-(node, time) gather windows
// hold full cohorts.
func scaleScenario(n int, horizon float64) eval.Scenario {
	g := graph.SyntheticScale(n, 0x5CA1E)
	for v := 0; v < g.NumNodes(); v++ {
		g.SetNodeCapacity(graph.NodeID(v), 40)
	}
	for l := 0; l < g.NumLinks(); l++ {
		g.SetLinkCapacity(l, 40)
	}
	return eval.Scenario{
		Graph:        g,
		IngressNodes: []graph.NodeID{2, 5, 9, 14},
		Egress:       1,
		Traffic:      traffic.BurstSpec(20, 16),
		Deadline:     100,
		Horizon:      horizon,
	}
}

func (sz sizing) setupScaleBurst(seed int64, rec *recorder, probe bool) (*deployment, error) {
	root := rec.begin(spSetup, -1, -1)
	defer rec.end(root)
	sp := rec.begin(spGraphBuild, root, -1)
	s := scaleScenario(sz.scaleNodes, sz.scaleHorizon)
	rec.end(sp)
	inst, err := instantiate(rec, root, s, seed)
	if err != nil {
		return nil, err
	}
	d := &deployment{
		inst:    inst,
		opts:    eval.RunOptions{MaxBatch: 16},
		adapter: newAdapter(rec, root, inst),
	}
	if d.actor, err = sz.untrainedActor(d.adapter); err != nil {
		return nil, err
	}
	return d, deployInproc(rec, root, d, seed, probe)
}

func (sz sizing) setupSimHeuristic(seed int64, rec *recorder, probe bool) (*deployment, error) {
	root := rec.begin(spSetup, -1, -1)
	defer rec.end(root)
	s := eval.Base()
	s.NumIngresses = 5
	s.Horizon = sz.simHorizon
	inst, err := instantiate(rec, root, s, seed)
	if err != nil {
		return nil, err
	}
	return &deployment{inst: inst, coordinator: baselines.GCASP{}}, nil
}
