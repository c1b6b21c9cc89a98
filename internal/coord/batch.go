package coord

import (
	"distcoord/internal/graph"
	"distcoord/internal/nn"
	"distcoord/internal/rl"
	"distcoord/internal/simnet"
)

// This file implements the simnet.BatchDecider capability for the
// package's coordinators: several flows pending at the same node and
// event time are observed against the same state snapshot and resolved
// with one batched actor forward pass. Every implementation resolves
// flows in slice order and draws per-node randomness in that order, so
// a batch of one is bit-identical to the sequential Decide path.

// observeRows packs one observation per flow into a flat row-major
// block backed by buf (grown as needed) and returns it. Row r occupies
// [r*w, (r+1)*w).
func observeRows(a *Adapter, buf []float64, st *simnet.State, flows []*simnet.Flow, v graph.NodeID, now float64) []float64 {
	w := a.ObsSize()
	k := len(flows)
	if cap(buf) < k*w {
		buf = make([]float64, k*w)
	}
	buf = buf[:k*w]
	for r, f := range flows {
		// ObserveInto appends from length zero; the capped three-index
		// slice makes it fill exactly row r in place.
		a.ObserveInto(buf[r*w:r*w:(r+1)*w], st, f, v, now)
	}
	return buf
}

// DecideBatch implements simnet.BatchDecider: node v observes all flows
// against the current state, runs its policy copy once over the batch,
// and samples (or argmaxes) per row. Row results are bit-identical to
// sequential Decide calls on the same per-node stream.
func (d *Distributed) DecideBatch(st *simnet.State, flows []*simnet.Flow, v graph.NodeID, now float64, actions []int) {
	k := len(flows)
	if k == 0 {
		return
	}
	if k == 1 {
		// A singleton batch takes the scalar path — same semantics, no
		// packing overhead.
		actions[0] = d.Decide(st, flows[0], v, now)
		return
	}
	n := &d.bank.nodes[v]
	n.batchObs = observeRows(d.adapter, n.batchObs, st, flows, v, now)
	n.decideRows(n.batchObs, k, d.adapter.NumActions(), d.Stochastic, actions)
}

// decideRows resolves k prebuilt observation rows (flat row-major) with
// one batched forward pass, sampling per row in order from the node's
// stream. Shared by the in-process batch path above and by
// PolicyBank.DecideRows (the agent-daemon path), so both sample
// bit-identically.
func (n *nodeState) decideRows(rows []float64, k, na int, stochastic bool, actions []int) {
	if n.bws == nil {
		n.bws = n.actor.NewBatchWorkspace()
	}
	logits := n.actor.ForwardBatchInto(n.bws, rows, k)
	if !stochastic {
		nn.ArgmaxRows(logits, k, na, actions)
		return
	}
	if cap(n.bprobs) < k*na {
		n.bprobs = make([]float64, k*na)
	}
	probs := nn.SoftmaxBatchInto(logits, k, na, n.bprobs[:k*na])
	for r := 0; r < k; r++ {
		actions[r] = nn.SampleCategorical(n.rng, probs[r*na:(r+1)*na])
	}
}

// DecideBatch implements simnet.BatchDecider for training rollouts when
// the policy supports batched selection; other policies fall back to
// per-flow Decide calls.
func (t *trainingCoordinator) DecideBatch(st *simnet.State, flows []*simnet.Flow, v graph.NodeID, now float64, actions []int) {
	bp, batched := t.policy.(rl.BatchPolicy)
	if !batched || len(flows) == 1 {
		for i, f := range flows {
			actions[i] = t.Decide(st, f, v, now)
		}
		return
	}
	w := t.adapter.ObsSize()
	// Freshly allocated per batch: the rows are retained as trajectory
	// observations by the collector.
	block := observeRows(t.adapter, nil, st, flows, v, now)
	bp.SelectActions(block, len(flows), actions)
	for r, f := range flows {
		t.col.onDecide(f, block[r*w:(r+1)*w:(r+1)*w], actions[r])
	}
}
