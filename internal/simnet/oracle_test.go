package simnet

import (
	"math"
	"math/rand"
	"testing"

	"distcoord/internal/graph"
	"distcoord/internal/traffic"
)

// The simulator's capacity model is a loss system: a flow placed at a
// node holds r_c(λ_f) from the decision until processing ends plus δ_f,
// and a forwarded flow holds λ_f on the link for δ_f; a flow that does
// not fit is dropped. With Poisson arrivals and unit demands against
// capacity C, the blocking probability is Erlang-B(C, A) with offered
// load A = arrival rate × mean holding time, whatever the holding-time
// distribution. These tests check the simulator against that closed
// form instead of against its own past output.

// erlangB returns the Erlang-B blocking probability for c servers and
// offered load a, by the stable recursion B(k) = a·B(k-1) / (k + a·B(k-1)).
func erlangB(c int, a float64) float64 {
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b
}

// processFirstCoord processes the flow where it stands until its chain
// is done, then forwards it to the first neighbor.
type processFirstCoord struct{}

func (processFirstCoord) Name() string { return "process-first" }

func (processFirstCoord) Decide(_ *State, f *Flow, _ graph.NodeID, _ float64) int {
	if f.Processed() {
		return 1
	}
	return 0
}

func TestErlangBOracle(t *testing.T) {
	// Each case is Poisson arrivals at rate lambda into node 0 of a one-
	// or two-node line, one unit-demand component with processing delay
	// procDelay, and δ_f = 1. With one node the node blocks and holds
	// for d_c + δ_f; with two the link 0-1 blocks and holds for δ_f.
	cases := []struct {
		name      string
		nodes     int
		capacity  int // C of the blocking resource
		procDelay float64
		lambda    float64
		seed      int64
		horizon   float64
	}{
		{"node C=1 A=0.5", 1, 1, 0, 0.5, 1, 200000},
		{"node C=5 A=6 d_c=0.5", 1, 5, 0.5, 4, 2, 50000},
		{"node C=10 A=12", 1, 10, 0, 12, 1, 20000},
		{"link C=3 A=2", 2, 3, 0.5, 2, 2, 100000},
	}
	total := 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nodeCap, linkCap, egress := float64(tc.capacity), 0.0, graph.NodeID(0)
			cause, hold := DropNodeCapacity, tc.procDelay+1
			if tc.nodes == 2 {
				nodeCap, linkCap, egress = 1e9, float64(tc.capacity), 1
				cause, hold = DropLinkCapacity, 1
			}
			svc := &Service{Name: "erlang", Chain: []*Component{
				{Name: "c", ProcDelay: tc.procDelay, IdleTimeout: 2 * tc.horizon, ResourcePerRate: 1},
			}}
			sim, err := New(Config{
				Graph:   lineGraph(tc.nodes, nodeCap, linkCap),
				Service: svc,
				Ingresses: []Ingress{{Node: 0,
					Arrivals: traffic.NewPoisson(1/tc.lambda, rand.New(rand.NewSource(tc.seed)))}},
				Egress:      egress,
				Template:    FlowTemplate{Rate: 1, Duration: 1, Deadline: 100},
				Horizon:     tc.horizon,
				Coordinator: processFirstCoord{},
			})
			if err != nil {
				t.Fatal(err)
			}
			m, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			total += m.Arrived
			if m.Succeeded+m.DropsBy[cause] != m.Arrived {
				t.Fatalf("arrived %d, succeeded %d, drops %v: only %v drops expected",
					m.Arrived, m.Succeeded, m.DropsBy, cause)
			}
			// Binomial standard error. Successive outcomes are correlated,
			// but over 60 seeds per case the rms of this z was 1.0-1.2.
			n := float64(m.Arrived)
			want := erlangB(tc.capacity, tc.lambda*hold)
			got := float64(m.DropsBy[cause]) / n
			z := (got - want) / math.Sqrt(want*(1-want)/n)
			t.Logf("%d arrivals: blocking %.4f, Erlang-B %.4f, z %+.2f", m.Arrived, got, want, z)
			if math.Abs(z) > 4 {
				t.Errorf("blocking %.4f vs Erlang-B %.4f: |z| = %.2f > 4", got, want, math.Abs(z))
			}
		})
	}
	if total > 1_000_000 {
		t.Errorf("oracle used %d arrivals, budget is 1 M", total)
	}
}
