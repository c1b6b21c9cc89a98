package agentnet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"distcoord/internal/telemetry"
)

// PoolConfig tunes a Pool.
type PoolConfig struct {
	// Client configures every per-agent connection.
	Client ClientConfig
	// ObserveRTT, if set, receives each decision round trip in
	// microseconds (Decide and DecideBatch alike). The driver points
	// this at a telemetry histogram so /metrics and the decision-RTT
	// report see the same samples.
	ObserveRTT func(us float64)
	// Metrics, if set, receives per-agent fleet health series named
	// agent.<slot>.* (rtt_us histogram, decides/failures counters,
	// reconnects/up/inflight gauges). The pool retires the whole series
	// on Close so a registry that outlives the pool (-obs-wait) never
	// serves stale per-agent gauges. Nil means the pool keeps a private
	// registry, so FleetSnapshot works either way.
	Metrics *telemetry.Registry
	// Logf receives pool lifecycle lines; nil silences them.
	Logf func(format string, args ...any)
}

// fleetEventCap bounds each agent's lifecycle timeline ring.
const fleetEventCap = 64

// FleetEvent is one entry in an agent's lifecycle timeline: a chaos
// sever, its revive, or a transparent client reconnect.
type FleetEvent struct {
	Wall time.Time `json:"wall"`
	Kind string    `json:"kind"` // "sever" | "revive" | "reconnect"
}

// agentState is the pool's per-slot health bookkeeping: resolved metric
// handles (looked up once at dial so the decide path never touches the
// registry maps) and the lifecycle event ring.
type agentState struct {
	rtt        *telemetry.Histogram
	decides    *telemetry.Counter
	failures   *telemetry.Counter
	reconnects *telemetry.Gauge
	up         *telemetry.Gauge
	inflightG  *telemetry.Gauge

	inflight atomic.Int64

	mu             sync.Mutex
	events         []FleetEvent // ring, oldest overwritten
	next           int
	wrapped        bool
	lastReconnects int64
}

func (st *agentState) record(kind string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ev := FleetEvent{Wall: time.Now(), Kind: kind}
	if len(st.events) < fleetEventCap {
		st.events = append(st.events, ev)
		return
	}
	st.events[st.next] = ev
	st.next = (st.next + 1) % fleetEventCap
	st.wrapped = true
}

// timeline returns the ring's events oldest-first.
func (st *agentState) timeline() []FleetEvent {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.wrapped {
		return append([]FleetEvent(nil), st.events...)
	}
	out := make([]FleetEvent, 0, len(st.events))
	out = append(out, st.events[st.next:]...)
	out = append(out, st.events[:st.next]...)
	return out
}

// Pool is the driver-side agent registry: one Client per agent daemon
// plus the node→agent assignment. Nodes are partitioned round-robin
// (node v is served by agent v mod len(agents)), which the daemons learn
// through Hello.Nodes at handshake.
//
// The pool is what coord.Remote talks to; it adds the cross-cutting
// concerns — RTT accounting, per-agent fleet health, model
// distribution, liveness, targeted kill/revive for chaos runs — on top
// of the per-connection Client.
type Pool struct {
	agents   []*Client
	states   []*agentState
	numNodes int
	cfg      PoolConfig
	reg      *telemetry.Registry
	ownReg   bool

	decides [2]atomic.Int64 // [ok, failed]
}

// DialPool connects and handshakes with every endpoint. hello is the
// template handshake; the pool fills in each agent's node assignment.
// All agents must be reachable at startup — a partially alive fleet is a
// deployment error, not a runtime condition.
func DialPool(endpoints []string, hello Hello, numNodes int, cfg PoolConfig) (*Pool, error) {
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("agentnet: pool needs at least one endpoint")
	}
	if numNodes <= 0 {
		return nil, fmt.Errorf("agentnet: pool needs a positive node count, got %d", numNodes)
	}
	p := &Pool{numNodes: numNodes, cfg: cfg, reg: cfg.Metrics}
	if p.reg == nil {
		p.reg = telemetry.NewRegistry()
		p.ownReg = true
	}
	for i, ep := range endpoints {
		h := hello
		h.Nodes = nil
		for v := i; v < numNodes; v += len(endpoints) {
			h.Nodes = append(h.Nodes, uint32(v))
		}
		c, err := Dial(ep, h, cfg.Client)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("agentnet: agent %d: %w", i, err)
		}
		p.agents = append(p.agents, c)
		p.states = append(p.states, p.newAgentState(i))
	}
	return p, nil
}

// newAgentState resolves slot i's metric handles and marks it up.
func (p *Pool) newAgentState(i int) *agentState {
	prefix := fmt.Sprintf("agent.%d.", i)
	st := &agentState{
		rtt:        p.reg.Histogram(prefix + "rtt_us"),
		decides:    p.reg.Counter(prefix + "decides"),
		failures:   p.reg.Counter(prefix + "failures"),
		reconnects: p.reg.Gauge(prefix + "reconnects"),
		up:         p.reg.Gauge(prefix + "up"),
		inflightG:  p.reg.Gauge(prefix + "inflight"),
	}
	st.up.Set(1)
	return st
}

// NumAgents returns the number of connected agent daemons.
func (p *Pool) NumAgents() int { return len(p.agents) }

// Agent returns the client for agent slot i.
func (p *Pool) Agent(i int) *Client { return p.agents[i] }

// AgentFor returns the agent slot serving node v.
func (p *Pool) AgentFor(node int) int { return node % len(p.agents) }

// AgentIDs returns the handshake-reported agent IDs, indexed by slot.
func (p *Pool) AgentIDs() []string {
	ids := make([]string, len(p.agents))
	for i, c := range p.agents {
		ids[i] = c.Ack().AgentID
	}
	return ids
}

// Caps returns the intersection of all agents' granted capabilities.
// The engine may only rely on what every agent can serve: a single
// batch-incapable agent disables batched dispatch for the run, because
// decision cohorts are per-node and any node might land on that agent.
func (p *Pool) Caps() uint32 {
	caps := ^uint32(0)
	for _, c := range p.agents {
		caps &= c.Ack().Caps
	}
	return caps
}

// observe folds one decision round trip into the global RTT hook and
// slot's fleet health series.
func (p *Pool) observe(slot int, start time.Time, failed bool) {
	us := float64(time.Since(start)) / float64(time.Microsecond)
	if p.cfg.ObserveRTT != nil {
		p.cfg.ObserveRTT(us)
	}
	st := p.states[slot]
	st.rtt.Observe(us)
	if failed {
		st.failures.Inc()
	} else {
		st.decides.Inc()
	}
	// Surface transparent client reconnects as both a gauge and a
	// timeline event; the client heals silently, so this delta check is
	// where the pool finds out.
	if rc := p.agents[slot].Reconnects(); rc != st.lastReconnects {
		st.lastReconnects = rc
		st.reconnects.Set(float64(rc))
		st.record("reconnect")
	}
}

// Decide routes one observation row to the agent serving node. flow and
// span are the trace context for the round trip (zeros when untraced).
func (p *Pool) Decide(node int, now float64, flow, span uint64, obs []float64) (int32, error) {
	slot := p.AgentFor(node)
	st := p.states[slot]
	st.inflightG.Set(float64(st.inflight.Add(1)))
	start := time.Now()
	a, err := p.agents[slot].Decide(uint32(node), now, flow, span, obs)
	st.inflightG.Set(float64(st.inflight.Add(-1)))
	p.observe(slot, start, err != nil)
	if err != nil {
		p.decides[1].Add(1)
		p.logf("agentnet: decide node %d: %v", node, err)
		return 0, err
	}
	p.decides[0].Add(1)
	return a, nil
}

// DecideBatch routes a same-node cohort to the agent serving node. The
// returned slice aliases client scratch, valid until the next call on
// that agent.
func (p *Pool) DecideBatch(node int, now float64, span uint64, width int, rows []float64) ([]int32, error) {
	slot := p.AgentFor(node)
	st := p.states[slot]
	st.inflightG.Set(float64(st.inflight.Add(1)))
	start := time.Now()
	as, err := p.agents[slot].DecideBatch(uint32(node), now, span, width, rows)
	st.inflightG.Set(float64(st.inflight.Add(-1)))
	p.observe(slot, start, err != nil)
	if err != nil {
		p.decides[1].Add(1)
		p.logf("agentnet: decide batch node %d: %v", node, err)
		return nil, err
	}
	p.decides[0].Add(1)
	return as, nil
}

// LastRPCTiming returns the sub-span decomposition of the most recent
// round trip to the agent serving node.
func (p *Pool) LastRPCTiming(node int) RPCTiming {
	return p.agents[p.AgentFor(node)].LastRPCTiming()
}

// PushModel distributes a checkpoint to every agent and fails if any
// agent rejects it. Push-to-all is atomic in intent, not execution: an
// agent that nacks leaves its previous model running, so the caller must
// treat an error as "fleet is heterogeneous" and abort the run.
func (p *Pool) PushModel(hash string, payload []byte) error {
	for i, c := range p.agents {
		if c.Ack().Caps&CapModelPush == 0 {
			return fmt.Errorf("agentnet: agent %d (%s) did not negotiate model push", i, c.Addr())
		}
		if err := c.PushModel(hash, payload); err != nil {
			return fmt.Errorf("agentnet: agent %d: %w", i, err)
		}
		p.logf("agentnet: pushed model %.12s... to agent %d (%s)", hash, i, c.Addr())
	}
	return nil
}

// PingAll probes every agent and returns the worst round trip, failing
// on the first dead agent.
func (p *Pool) PingAll() (time.Duration, error) {
	var worst time.Duration
	for i, c := range p.agents {
		rtt, err := c.Ping()
		if err != nil {
			return 0, fmt.Errorf("agentnet: agent %d: %w", i, err)
		}
		if rtt > worst {
			worst = rtt
		}
	}
	return worst, nil
}

// Sever marks agent slot i dead: its connection drops and requests to
// its nodes fail fast without reconnecting until Revive.
func (p *Pool) Sever(i int) {
	p.agents[i].Sever()
	p.states[i].up.Set(0)
	p.states[i].record("sever")
}

// Revive lifts a Sever on agent slot i.
func (p *Pool) Revive(i int) {
	p.agents[i].Revive()
	p.states[i].up.Set(1)
	p.states[i].record("revive")
}

// DecideStats returns the number of successful and failed decision
// round trips so far.
func (p *Pool) DecideStats() (ok, failed int64) {
	return p.decides[0].Load(), p.decides[1].Load()
}

// AgentStatus is one agent's entry in a FleetSnapshot.
type AgentStatus struct {
	Slot       int          `json:"slot"`
	ID         string       `json:"id"`
	Addr       string       `json:"addr"`
	Up         bool         `json:"up"`
	ModelHash  string       `json:"model_hash"`
	Caps       uint32       `json:"caps"`
	Decides    int64        `json:"decides"`
	Failures   int64        `json:"failures"`
	Reconnects int64        `json:"reconnects"`
	Inflight   int64        `json:"inflight"`
	RTTSamples uint64       `json:"rtt_samples"`
	RTTp50Us   float64      `json:"rtt_p50_us"`
	RTTp99Us   float64      `json:"rtt_p99_us"`
	Events     []FleetEvent `json:"events,omitempty"`
}

// FleetSnapshot is the pool's aggregated fleet health view, served as
// JSON on the coordinator's /fleet endpoint.
type FleetSnapshot struct {
	NumAgents int           `json:"num_agents"`
	NumNodes  int           `json:"num_nodes"`
	Decides   int64         `json:"decides"`
	Failed    int64         `json:"failed"`
	Agents    []AgentStatus `json:"agents"`
}

// FleetSnapshot captures every agent's current health: liveness, model
// version, decide/failure/reconnect counts, RTT percentiles, and the
// kill/recovery timeline.
func (p *Pool) FleetSnapshot() FleetSnapshot {
	snap := FleetSnapshot{
		NumAgents: len(p.agents),
		NumNodes:  p.numNodes,
		Decides:   p.decides[0].Load(),
		Failed:    p.decides[1].Load(),
	}
	for i, c := range p.agents {
		st := p.states[i]
		ack := c.Ack()
		snap.Agents = append(snap.Agents, AgentStatus{
			Slot:       i,
			ID:         ack.AgentID,
			Addr:       c.Addr(),
			Up:         st.up.Value() != 0,
			ModelHash:  ack.ModelHash,
			Caps:       ack.Caps,
			Decides:    st.decides.Value(),
			Failures:   st.failures.Value(),
			Reconnects: c.Reconnects(),
			Inflight:   st.inflight.Load(),
			RTTSamples: st.rtt.Count(),
			RTTp50Us:   st.rtt.Quantile(0.5),
			RTTp99Us:   st.rtt.Quantile(0.99),
			Events:     st.timeline(),
		})
	}
	return snap
}

// FleetHandler serves FleetSnapshot as JSON; the driver mounts it at
// /fleet on its obs mux.
func (p *Pool) FleetHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(p.FleetSnapshot()) //nolint:errcheck // client went away
	})
}

// Close releases every connection and retires the pool's agent.<slot>.*
// series from a shared registry — the obs server may outlive the pool
// (-obs-wait holds it open), and a dead fleet must not keep reporting
// per-agent gauges as if the agents were still there.
func (p *Pool) Close() error {
	var wg sync.WaitGroup
	for _, c := range p.agents {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			c.Close()
		}(c)
	}
	wg.Wait()
	if !p.ownReg {
		for i := range p.agents {
			p.reg.DeletePrefix(fmt.Sprintf("agent.%d.", i))
		}
	}
	return nil
}

func (p *Pool) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}
