package main

import (
	"bytes"
	"crypto/md5"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"distcoord/internal/agentnet"
	"distcoord/internal/coord"
	"distcoord/internal/eval"
	"distcoord/internal/flowtrace"
	"distcoord/internal/graph"
	"distcoord/internal/simnet"
	"distcoord/internal/telemetry"
)

// runConfig is one invocation's arguments.
type runConfig struct {
	seed    int64
	seconds float64 // measuring budget for the episodes of a run
	trace   bool
	spans   string // JSONL path for the traced run's spans; "" keeps them in memory only
}

// episode is one simulated run of the workload's instance.
type episode struct {
	wall time.Duration
	m    *simnet.Metrics
	md5  string
}

// metricsMD5 reduces a run's metrics to a digest, including the full
// delay vector, which is sensitive to event order. Simulated statistics
// repeat exactly for a seed, so a speed-only change leaves it untouched.
func metricsMD5(m *simnet.Metrics) string {
	data, err := json.Marshal(m)
	if err != nil {
		panic(err) // plain numbers always marshal
	}
	return fmt.Sprintf("%x", md5.Sum(data))
}

func runEpisode(inst *eval.Instance, c simnet.Coordinator, opts eval.RunOptions) (episode, error) {
	start := time.Now()
	m, err := inst.RunWith(c, opts)
	wall := time.Since(start)
	if err != nil {
		return episode{}, err
	}
	return episode{wall: wall, m: m, md5: metricsMD5(m)}, nil
}

// checkFlows is the per-episode flow accounting invariant.
func checkFlows(m *simnet.Metrics) error {
	if m.Pending() != 0 {
		return fmt.Errorf("%d flows still pending after the run", m.Pending())
	}
	if m.Arrived != m.Succeeded+m.Dropped {
		return fmt.Errorf("arrived %d != succeeded %d + dropped %d", m.Arrived, m.Succeeded, m.Dropped)
	}
	return nil
}

// account books an episode's decisions as attempted operations and
// checks it against the reference digest of its seed ("" for the first
// episode). Every decision of an episode that breaks a check counts as
// failed.
func (r *report) account(what string, e episode, wantMD5 string) {
	r.Attempted += int64(e.m.Decisions)
	ok := true
	if err := checkFlows(e.m); err != nil {
		r.problem("%s: %v", what, err)
		ok = false
	}
	if wantMD5 != "" && e.md5 != wantMD5 {
		r.problem("%s: metrics_md5 %s differs from %s of the same seed: it did different work", what, e.md5, wantMD5)
		ok = false
	}
	if !ok {
		r.Failed += int64(e.m.Decisions)
	}
}

func heapAllocMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func us(ns float64) float64 { return ns / 1e3 }

// setupSamples collects a run's set-up samples.
type setupSamples struct {
	plan        setupPlan
	secs, heaps []float64
}

func (s *setupSamples) done() bool { return len(s.secs) >= s.plan.samples }

// take times one sample: plan.batch back-to-back calls of build, each
// from scenario construction until the first decision can be taken, then
// the live heap the last one leaves behind. build releases what the
// previous call built.
func (s *setupSamples) take(build func() error) error {
	runtime.GC()
	start := time.Now()
	for i := 0; i < s.plan.batch; i++ {
		if err := build(); err != nil {
			return err
		}
	}
	s.secs = append(s.secs, time.Since(start).Seconds()/float64(s.plan.batch))
	s.heaps = append(s.heaps, heapAllocMB())
	return nil
}

func (s *setupSamples) report(rep *report) {
	rep.set("setup_s", median(s.secs))
	rep.set("heap_live_mb", median(s.heaps))
	rep.Info["setup_samples"] = fmt.Sprintf("%d x %d", s.plan.samples, s.plan.batch)
}

// runEpisodic runs a workload whose unit of work is one simulated
// episode.
func runEpisodic(rc runConfig, setup setupFunc, plan setupPlan) (*report, error) {
	if rc.trace {
		return traceEpisodic(rc, setup)
	}
	rep := newReport(rc)

	// The first set-up sample's deployment serves the episodes; the other
	// samples are taken after them, when the process is as warm as a
	// long-running driver would be. Nothing of the harness's own outlives
	// measureEpisodes, so the later heap readings see one deployment only.
	dep := &deployment{}
	defer func() { dep.close() }()
	build := func() error {
		dep.close()
		dep = &deployment{}
		d, err := setup(rc.seed, nil, false)
		if err != nil {
			return err
		}
		dep = d
		return nil
	}
	samples := setupSamples{plan: plan}
	for !samples.done() {
		if err := samples.take(build); err != nil {
			return nil, err
		}
		if len(samples.secs) == 1 {
			if err := measureEpisodes(rep, rc, dep); err != nil {
				return nil, err
			}
		}
	}
	samples.report(rep)
	rep.finish()
	return rep, nil
}

// measureEpisodes runs the untraced episodes of a run on dep: one timed,
// then plain ones while they fit the budget.
func measureEpisodes(rep *report, rc runConfig, dep *deployment) error {
	budget := time.Duration(rc.seconds * float64(time.Second))
	start := time.Now()

	// The remote ≡ in-process oracle: a socket run must reproduce the
	// metrics of the same policy deciding in process.
	want := ""
	if dep.remote != nil {
		oracle, err := coord.NewDistributed(dep.adapter, dep.actor)
		if err != nil {
			return err
		}
		oracle.Reseed(rc.seed)
		e, err := runEpisode(dep.inst, oracle, dep.opts)
		if err != nil {
			return err
		}
		rep.account("in-process oracle episode", e, "")
		want = e.md5
		rep.Info["oracle_md5"] = want
	}

	// Timed episodes: the coordinator behind a wrapper that only
	// timestamps each call. The first doubles as warm-up; more follow
	// while they fit a fifth of the budget. Each yields its own
	// percentiles and the run reports their medians, so that one episode
	// that met interference does not set the tail of a workload whose
	// episodes are short.
	var first episode
	var p50s, p95s, p99s []float64
	for n := 0; n == 0 || time.Since(start)+first.wall <= budget/5; n++ {
		if err := dep.prepare(rc.seed); err != nil {
			return err
		}
		c, samples := timed(dep.coordinator, dep.opts.MaxBatch)
		e, err := runEpisode(dep.inst, c, dep.opts)
		if err != nil {
			return err
		}
		if n == 0 {
			first = e
			if want == "" {
				want = e.md5
			}
		}
		rep.account(fmt.Sprintf("timed episode %d", n+1), e, want)
		sort.Float64s(samples.ns)
		p50s = append(p50s, percentile(samples.ns, 0.50))
		p95s = append(p95s, percentile(samples.ns, 0.95))
		p99s = append(p99s, percentile(samples.ns, 0.99))
		rep.Info["decide_samples"] = len(samples.ns)
		rep.Info["decide_samples_beyond_p95"] = samplesBeyond(len(samples.ns), 0.95)
	}

	// Plain episodes with the bare coordinator, while they fit the
	// budget (at least two). Each does identical work.
	var rates []float64
	for n := 0; n < 2 || time.Since(start)+first.wall <= budget; n++ {
		if err := dep.prepare(rc.seed); err != nil {
			return err
		}
		e, err := runEpisode(dep.inst, dep.coordinator, dep.opts)
		if err != nil {
			return err
		}
		rep.account(fmt.Sprintf("plain episode %d", n+1), e, want)
		rates = append(rates, float64(e.m.Decisions)/e.wall.Seconds())
	}
	dep.dropRemote()
	rep.tally(dep)

	rep.set("decisions_per_s", median(rates))
	rep.set("decide_p50_us", us(median(p50s)))
	rep.set("decide_p95_us", us(median(p95s)))
	rep.Info["decide_p99_us"] = us(median(p99s))
	rep.Info["timed_episodes"] = len(p50s)
	rep.Info["plain_episodes"] = len(rates)
	rep.Info["decisions_per_s_spread"] = spread(rates)
	describe(rep, first.m, first.md5)
	return nil
}

// describe prints the simulated statistics beside the metrics. They
// repeat exactly for a seed.
func describe(rep *report, m *simnet.Metrics, md5 string) {
	rep.Info["metrics_md5"] = md5
	rep.Info["decisions"] = m.Decisions
	rep.Info["flows"] = m.Arrived
	rep.Info["flows_per_decision"] = float64(m.Arrived) / float64(m.Decisions)
	rep.Info["success_ratio"] = m.SuccessRatio()
}

// plainReference sets the workload up untraced and runs the plain
// episodes a traced run is compared with: their median wall time, the
// reference digest, and the layer measurements that need episodes of
// their own.
func plainReference(rep *report, rc runConfig, setup setupFunc) (ref episode, wall float64, err error) {
	dep, err := setup(rc.seed, nil, false)
	if err != nil {
		return ref, 0, err
	}
	defer dep.close()
	var walls []float64
	for n := 0; n < 3; n++ {
		if err := dep.prepare(rc.seed); err != nil {
			return ref, 0, err
		}
		e, err := runEpisode(dep.inst, dep.coordinator, dep.opts)
		if err != nil {
			return ref, 0, err
		}
		if n == 0 {
			ref = e
		}
		rep.account(fmt.Sprintf("plain episode %d", n+1), e, ref.md5)
		walls = append(walls, e.wall.Seconds())
	}
	wall = median(walls)
	rep.Info["plain_decisions_per_s"] = float64(ref.m.Decisions) / wall
	if err := layerExtras(rep, dep, rc.seed, wall, ref.md5); err != nil {
		return ref, 0, err
	}
	dep.dropRemote()
	rep.tally(dep)
	return ref, wall, nil
}

// tally books a closed deployment's transport failures.
func (r *report) tally(dep *deployment) {
	r.Failed += dep.failed
	if dep.failed != 0 {
		r.problem("%d decisions failed in transport", dep.failed)
	}
	if r.Trace {
		r.set("agentnet.failed", r.Metrics["agentnet.failed"]+float64(dep.failed))
		r.set("agentnet.reconnects", r.Metrics["agentnet.reconnects"]+float64(dep.reconnects))
	}
}

// traceEpisodic is the separate traced run. Plain episodes first give
// the untraced wall time and the reference digest; then a probe
// coordinator does the bare coordinator's computation through public
// functions with a span around each call, on a traced set-up of its own.
func traceEpisodic(rc runConfig, setup setupFunc) (*report, error) {
	rep := newReport(rc)
	ref, plainWall, err := plainReference(rep, rc, setup)
	if err != nil {
		return nil, err
	}

	// The traced set-up: its spans are the recorder's first.
	rec := newRecorder(16)
	dep, err := setup(rc.seed, rec, true)
	if err != nil {
		return nil, err
	}
	defer dep.close()
	const setupSpan = 0
	layers := selfByLayer(rec.spans, setupSpan)
	sec := func(l layer) float64 { return float64(layers[l]) / 1e9 }
	rep.set("graph.build_s", sec(spGraphBuild))
	rep.set("eval.instantiate_s", sec(spInstantiate))
	rep.set("nn.load_s", sec(spLoad))
	rep.set("coord.deploy_s", sec(spDeploy))
	rep.set("coord.deploy_heap_mb", dep.deployAllocMB)
	rep.set("agentnet.dial_s", sec(spDial))
	rep.Info["setup_s_traced"] = float64(rec.spans[setupSpan].duration()) / 1e9
	if err := checkTiling(layers, rec.spans[setupSpan].duration()); err != nil {
		rep.problem("set-up spans: %v", err)
	}

	// The probe episode. The recorder is sized beforehand, so that growing
	// the span list is not part of what the episode measures.
	if err := dep.prepare(rc.seed); err != nil {
		return nil, err
	}
	epSpan := rec.begin(spEpisode, -1, -1)
	base := probeBase{rec: rec, episode: epSpan}
	var probe simnet.Coordinator
	var bp *bankProbe
	var pp *poolProbe
	spansPerDecision := 3
	switch {
	case dep.bank != nil:
		bp = &bankProbe{probeBase: base, adapter: dep.adapter, bank: dep.bank, stochastic: dep.stochastic}
		probe = bp
	case dep.remote != nil:
		pp = &poolProbe{probeBase: base, adapter: dep.adapter, pool: dep.remote.Pool()}
		probe = pp
	default:
		probe = &wrapProbe{probeBase: base, inner: dep.coordinator}
		spansPerDecision = 1
	}
	rec.reserve(spansPerDecision * ref.m.Decisions)
	probed, err := runEpisode(dep.inst, probe, dep.opts)
	rec.end(epSpan)
	if err != nil {
		return nil, err
	}
	// The probe must have measured the computation the plain episodes did.
	rep.account("probe episode", probed, ref.md5)
	if bp != nil && bp.err != nil {
		rep.problem("probe: %v", bp.err)
	}
	layers = selfByLayer(rec.spans, epSpan)
	wall := float64(rec.spans[epSpan].duration())
	if err := checkTiling(layers, rec.spans[epSpan].duration()); err != nil {
		rep.problem("probe episode spans: %v", err)
	}
	rep.set("trace.overhead_ratio", probed.wall.Seconds()/plainWall)

	// The simulator's time is what no coordinator call covers. The decide
	// span's own time is the probe's bookkeeping between its children
	// (for a heuristic, which has no children, the coordinator itself).
	decisions := float64(probed.m.Decisions)
	rep.set("simnet.self_us_per_decision", us(float64(layers[spEpisode]))/decisions)
	rep.set("simnet.self_share", float64(layers[spEpisode])/wall)
	rep.set("simnet.decisions", decisions)
	rep.set("simnet.flows", float64(probed.m.Arrived))
	rep.set("simnet.success_ratio", probed.m.SuccessRatio())
	rep.Info["decide_self_share"] = float64(layers[spDecide]) / wall
	rep.Info["decide_self_us_per_decision"] = us(float64(layers[spDecide])) / decisions

	var replayRows []float64
	if dep.adapter != nil {
		rep.set("coord.observe_us_per_row", us(float64(layers[spObserve]))/decisions)
		rep.set("coord.observe_share", float64(layers[spObserve])/wall)
	}
	if bp != nil {
		rep.set("coord.policy_us_per_row", us(float64(layers[spPolicy]))/decisions)
		rep.set("coord.policy_share", float64(layers[spPolicy])/wall)
		rep.set("simnet.cohort_calls", float64(bp.cohortCalls))
		if bp.cohortCalls > 0 {
			rep.set("simnet.cohort_mean_rows", float64(bp.cohortRows)/float64(bp.cohortCalls))
		}
		if dep.opts.MaxBatch <= 1 {
			rep.set("coord.seq_us_per_decision", us(medianDuration(rec.spans, spDecide)))
		}
		replayRows = bp.capture
	}
	if pp != nil {
		sort.Float64s(pp.rttNS)
		sort.Float64s(pp.wireNS)
		sort.Float64s(pp.inferNS)
		rep.set("agentnet.rtt_us_p50", us(percentile(pp.rttNS, 0.5)))
		rep.set("agentnet.wire_us_p50", us(percentile(pp.wireNS, 0.5)))
		rep.set("agentnet.infer_us_p50", us(percentile(pp.inferNS, 0.5)))
		rep.set("agentnet.wire_share", sum(pp.wireNS)/sum(pp.rttNS))
		rep.Info["agentnet.rtt_share"] = float64(layers[spRTT]) / wall
		rep.set("agentnet.bytes_per_decision", float64(wireBytes(dep.adapter.ObsSize())))
		replayRows = pp.capture
	}

	// Public-kernel replay of the rows the probe saw.
	if len(replayRows) > 0 {
		replayKernels(rep, dep, replayRows)
	}
	if dep.actor != nil {
		flops := flopsPerRow(dep.actor)
		rep.set("nn.flops_per_row", flops)
		rep.set("nn.weight_bytes_resident", float64(dep.actor.NumParams()*8*dep.copies))
		if v := rep.Metrics["nn.forward_us_k1"]; v > 0 {
			rep.set("nn.gflops_k1", flops/(v*1e3))
		}
		if v := rep.Metrics["nn.batch_us_per_row_k16"]; v > 0 {
			rep.set("nn.gflops_k16", flops/(v*1e3))
		}
	}

	// The graph layer, replayed alone on this workload's graph.
	start := time.Now()
	graph.NewAPSP(dep.inst.Graph)
	rep.set("graph.apsp_s", time.Since(start).Seconds())

	dep.dropRemote()
	rep.tally(dep)

	describe(rep, probed.m, probed.md5)
	rep.Info["spans"] = len(rec.spans)
	if rc.spans != "" {
		if err := writeSpans(rc.spans, rec.spans); err != nil {
			return nil, err
		}
	}
	rep.finish()
	return rep, nil
}

// wireBytes is the size of one sequential decision on the wire, request
// plus response, computed from the protocol's own encoders. It is not
// measured on a link: the traffic crosses the host loopback.
func wireBytes(obsSize int) int {
	var buf bytes.Buffer
	req := agentnet.Decide{Obs: make([]float64, obsSize)}
	resp := agentnet.Action{}
	// Writes to a bytes.Buffer cannot fail.
	_ = agentnet.WriteFrame(&buf, agentnet.MsgDecide, req.Marshal())
	_ = agentnet.WriteFrame(&buf, agentnet.MsgAction, resp.Marshal())
	return buf.Len()
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// layerExtras takes the measurements that need episodes of their own,
// on the workload where the layer in question dominates.
func layerExtras(rep *report, dep *deployment, seed int64, plainWall float64, wantMD5 string) error {
	// Sharding and the sequential path are judged on the batched scale
	// point: decisions per second at Shards:2 over Shards:1, and the
	// per-decision cost without the gather window (Fig. 9b's "constant
	// in |V|", against paper_inproc's value of the same metric).
	if dep.opts.MaxBatch > 1 {
		var walls []float64
		for n := 0; n < 3; n++ {
			if err := dep.prepare(seed); err != nil {
				return err
			}
			opts := dep.opts
			opts.Shards = 2
			e, err := runEpisode(dep.inst, dep.coordinator, opts)
			if err != nil {
				return err
			}
			rep.account("Shards:2 episode", e, "")
			walls = append(walls, e.wall.Seconds())
		}
		rep.set("simnet.shards2_ratio", plainWall/median(walls))

		if err := dep.prepare(seed); err != nil {
			return err
		}
		c, samples := timed(dep.coordinator, 0)
		e, err := runEpisode(dep.inst, c, eval.RunOptions{})
		if err != nil {
			return err
		}
		rep.account("sequential episode", e, "")
		rep.set("coord.seq_us_per_decision", us(median(samples.ns)))
	}

	// The flow tracer's cost is taken where simnet dominates, so the NN
	// does not dilute it.
	if dep.adapter == nil {
		var walls []float64
		for n := 0; n < 2; n++ {
			opts := dep.opts
			opts.Tracer = flowtrace.NewCollector(telemetry.NewRegistry())
			e, err := runEpisode(dep.inst, dep.coordinator, opts)
			if err != nil {
				return err
			}
			rep.account("flow-traced episode", e, wantMD5)
			walls = append(walls, e.wall.Seconds())
		}
		rep.set("flowtrace.overhead_ratio", median(walls)/plainWall)
	}
	return nil
}
