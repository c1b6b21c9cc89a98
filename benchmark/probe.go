package main

import (
	"time"

	"distcoord/internal/agentnet"
	"distcoord/internal/coord"
	"distcoord/internal/graph"
	"distcoord/internal/simnet"
)

// timedCoordinator is the untraced run's thin wrapper: it only
// timestamps each call into the bare coordinator. A cohort call counts
// once per row, so the samples are per decision.
type timedCoordinator struct {
	inner simnet.Coordinator
	ns    []float64 // call duration per decision
}

func (t *timedCoordinator) Name() string { return t.inner.Name() }

func (t *timedCoordinator) Decide(st *simnet.State, f *simnet.Flow, v graph.NodeID, now float64) int {
	start := time.Now()
	a := t.inner.Decide(st, f, v, now)
	t.ns = append(t.ns, float64(time.Since(start)))
	return a
}

// timedBatchCoordinator additionally forwards the BatchDecider
// capability, so a batched workload still batches while it is timed.
type timedBatchCoordinator struct {
	timedCoordinator
	batch simnet.BatchDecider
}

func (t *timedBatchCoordinator) DecideBatch(st *simnet.State, flows []*simnet.Flow, v graph.NodeID, now float64, actions []int) {
	start := time.Now()
	t.batch.DecideBatch(st, flows, v, now, actions)
	d := float64(time.Since(start))
	for range flows {
		t.ns = append(t.ns, d)
	}
}

// timed wraps c for the timed episode, keeping batching when the run
// asks for it and the coordinator can do it.
func timed(c simnet.Coordinator, maxBatch int) (simnet.Coordinator, *timedCoordinator) {
	t := timedCoordinator{inner: c, ns: make([]float64, 0, 1<<16)}
	if b := simnet.Capabilities(c).Batch; b != nil && maxBatch > 1 {
		tb := &timedBatchCoordinator{timedCoordinator: t, batch: b}
		return tb, &tb.timedCoordinator
	}
	return &t, &t
}

// probeBase is what every probe coordinator shares: the recorder and the
// episode span its decide spans hang under.
type probeBase struct {
	rec     *recorder
	episode int
}

// captureRows bounds the observation rows a probe keeps for the nn
// kernel replay.
const captureRows = 2048

// keepRows appends rows (of the given width) to kept until it holds
// captureRows of them.
func keepRows(kept, rows []float64, width int) []float64 {
	room := captureRows*width - len(kept)
	if room <= 0 {
		return kept
	}
	if len(rows) > room {
		rows = rows[:room]
	}
	return append(kept, rows...)
}

// wrapProbe traces a coordinator the harness cannot decompose (the
// heuristics): one decide span per call.
type wrapProbe struct {
	probeBase
	inner simnet.Coordinator
}

func (p *wrapProbe) Name() string { return p.inner.Name() }

func (p *wrapProbe) Decide(st *simnet.State, f *simnet.Flow, v graph.NodeID, now float64) int {
	d := p.rec.begin(spDecide, p.episode, f.ID)
	a := p.inner.Decide(st, f, v, now)
	p.rec.end(d)
	return a
}

// bankProbe performs coord.Distributed's computation through public
// functions only — Adapter.ObserveInto, then PolicyBank.DecideObs or
// DecideRows — with a span around each. Its metrics must equal the bare
// coordinator's, or the trace measured a different computation.
type bankProbe struct {
	probeBase
	adapter    *coord.Adapter
	bank       *coord.PolicyBank
	stochastic bool

	obs     []float64
	rows    []float64
	capture []float64
	err     error

	cohortCalls int
	cohortRows  int
}

func (p *bankProbe) Name() string { return "DistDRL" }

func (p *bankProbe) Decide(st *simnet.State, f *simnet.Flow, v graph.NodeID, now float64) int {
	d := p.rec.begin(spDecide, p.episode, f.ID)
	o := p.rec.begin(spObserve, d, f.ID)
	p.obs = p.adapter.ObserveInto(p.obs, st, f, v, now)
	p.rec.end(o)
	q := p.rec.begin(spPolicy, d, f.ID)
	a, err := p.bank.DecideObs(int(v), p.obs, p.stochastic)
	p.rec.end(q)
	p.rec.end(d)
	p.capture = keepRows(p.capture, p.obs, len(p.obs))
	if err != nil {
		p.err = err
		return -1
	}
	return a
}

func (p *bankProbe) DecideBatch(st *simnet.State, flows []*simnet.Flow, v graph.NodeID, now float64, actions []int) {
	k := len(flows)
	p.cohortCalls++
	p.cohortRows += k
	if k == 1 {
		actions[0] = p.Decide(st, flows[0], v, now)
		return
	}
	w := p.adapter.ObsSize()
	if cap(p.rows) < k*w {
		p.rows = make([]float64, k*w)
	}
	p.rows = p.rows[:k*w]
	d := p.rec.begin(spDecide, p.episode, flows[0].ID)
	o := p.rec.begin(spObserve, d, flows[0].ID)
	for r, f := range flows {
		p.adapter.ObserveInto(p.rows[r*w:r*w:(r+1)*w], st, f, v, now)
	}
	p.rec.end(o)
	q := p.rec.begin(spPolicy, d, flows[0].ID)
	err := p.bank.DecideRows(int(v), p.rows, k, p.stochastic, actions)
	p.rec.end(q)
	p.rec.end(d)
	p.capture = keepRows(p.capture, p.rows, w)
	if err != nil {
		p.err = err
		for i := range actions[:k] {
			actions[i] = -1
		}
	}
}

// poolProbe performs coord.Remote's sequential computation through
// public functions — Adapter.ObserveInto, then Pool.Decide — and reads
// each round trip's decomposition from Pool.LastRPCTiming.
type poolProbe struct {
	probeBase
	adapter *coord.Adapter
	pool    *agentnet.Pool

	obs     []float64
	capture []float64
	seq     uint64
	rttNS   []float64
	wireNS  []float64
	inferNS []float64
}

func (p *poolProbe) Name() string { return "RemoteDRL" }

func (p *poolProbe) Decide(st *simnet.State, f *simnet.Flow, v graph.NodeID, now float64) int {
	d := p.rec.begin(spDecide, p.episode, f.ID)
	o := p.rec.begin(spObserve, d, f.ID)
	p.obs = p.adapter.ObserveInto(p.obs, st, f, v, now)
	p.rec.end(o)
	q := p.rec.begin(spRTT, d, f.ID)
	p.seq++
	a, err := p.pool.Decide(int(v), now, uint64(f.ID), p.seq, p.obs)
	p.rec.end(q)
	p.rec.end(d)
	t := p.pool.LastRPCTiming(int(v))
	p.rttNS = append(p.rttNS, float64(t.TotalNS))
	p.wireNS = append(p.wireNS, float64(t.TotalNS-t.InferNS))
	p.inferNS = append(p.inferNS, float64(t.InferNS))
	p.capture = keepRows(p.capture, p.obs, len(p.obs))
	if err != nil {
		return -1
	}
	return int(a)
}
