package coord

import (
	"reflect"
	"testing"

	"distcoord/internal/simnet"
)

// batchFlows builds k distinct flows pending at the same node.
func batchFlows(cfg EnvConfig, k int) []*simnet.Flow {
	flows := make([]*simnet.Flow, k)
	for i := range flows {
		flows[i] = &simnet.Flow{
			ID: i + 1, Service: cfg.Service, Egress: 1,
			Rate: 1, Duration: 1, Deadline: 50,
			Arrival: float64(i) * 0.001, // distinct observations
		}
	}
	return flows
}

// TestDecideBatchMatchesDecide is the coord-level equivalence oracle: a
// DecideBatch over k flows must return exactly the actions k sequential
// Decide calls produce from an identically seeded coordinator, in both
// decision modes — the batched forward pass is bit-identical per row and
// the per-node stream is consumed in row order.
func TestDecideBatchMatchesDecide(t *testing.T) {
	for _, mode := range []struct {
		name       string
		stochastic bool
	}{{"stochastic", true}, {"argmax", false}} {
		t.Run(mode.name, func(t *testing.T) {
			d, cfg := newTestDistributed(t)
			d.Stochastic = mode.stochastic
			st := simnet.NewState(cfg.Graph, d.adapter.APSP())
			for _, k := range []int{1, 2, 3, 7, 16, 33} {
				flows := batchFlows(cfg, k)

				d.Reseed(99)
				want := make([]int, k)
				for i, f := range flows {
					want[i] = d.Decide(st, f, 0, 1)
				}

				d.Reseed(99)
				got := make([]int, k)
				d.DecideBatch(st, flows, 0, 1, got)

				if !reflect.DeepEqual(got, want) {
					t.Errorf("k=%d: DecideBatch = %v, sequential Decide = %v", k, got, want)
				}
			}
		})
	}
}

// TestDecideBatchZeroAllocs pins the steady-state batched decision path
// (observe rows + batched forward + softmax + sample) at zero
// allocations once the per-node batch buffers are warm.
func TestDecideBatchZeroAllocs(t *testing.T) {
	d, cfg := newTestDistributed(t)
	st := simnet.NewState(cfg.Graph, d.adapter.APSP())
	flows := batchFlows(cfg, 16)
	actions := make([]int, len(flows))
	d.DecideBatch(st, flows, 0, 1, actions) // warm up batch buffers
	allocs := testing.AllocsPerRun(200, func() {
		d.DecideBatch(st, flows, 0, 1, actions)
	})
	if allocs != 0 {
		t.Errorf("DecideBatch allocates %v times per run, want 0", allocs)
	}
}
