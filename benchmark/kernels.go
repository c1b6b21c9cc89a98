package main

import (
	"fmt"
	"math/rand"
	"time"

	"distcoord/internal/nn"
)

// replayPasses is how often each kernel runs over the captured rows; the
// reported time is the median pass.
const replayPasses = 5

// replayKernels pushes observation rows captured in the traced episode
// through nn's public kernels, alone: no simulator, no adapter. The k2
// and k4 points show the cost of lanes no row uses, which no workload's
// cohorts (all 16) can.
func replayKernels(rep *report, dep *deployment, rows []float64) {
	actor := dep.actor
	w, na := actor.InputSize(), actor.OutputSize()
	n := len(rows) / w
	n -= n % 16 // whole cohorts at every k
	if n == 0 {
		return
	}
	rows = rows[:n*w]
	rep.Info["nn.replay_rows"] = n

	perRow := func(pass func()) float64 {
		times := make([]float64, replayPasses)
		for i := range times {
			start := time.Now()
			pass()
			times[i] = float64(time.Since(start)) / float64(n)
		}
		return us(median(times))
	}

	ws := actor.NewWorkspace()
	logits := make([]float64, n*na)
	rep.set("nn.forward_us_k1", perRow(func() {
		for r := 0; r < n; r++ {
			copy(logits[r*na:], actor.ForwardInto(ws, rows[r*w:(r+1)*w]))
		}
	}))

	bws := actor.NewBatchWorkspace()
	for _, k := range []int{2, 4, 16} {
		k := k
		rep.set(fmt.Sprintf("nn.batch_us_per_row_k%d", k), perRow(func() {
			for r := 0; r < n; r += k {
				actor.ForwardBatchInto(bws, rows[r*w:(r+k)*w], k)
			}
		}))
	}

	if dep.stochastic {
		rng := rand.New(rand.NewSource(1))
		probs := make([]float64, na)
		rep.set("nn.sample_us_per_row", perRow(func() {
			for r := 0; r < n; r++ {
				nn.SampleCategorical(rng, nn.SoftmaxInto(logits[r*na:(r+1)*na], probs))
			}
		}))
	} else {
		actions := make([]int, 16)
		rep.set("nn.sample_us_per_row", perRow(func() {
			for r := 0; r < n; r += 16 {
				nn.ArgmaxRows(logits[r*na:(r+16)*na], 16, na, actions)
			}
		}))
	}
}

// flopsPerRow is the multiply-adds of one forward pass, computed from
// the layer sizes (2·in·out per dense layer); the activations are not
// counted.
func flopsPerRow(m *nn.MLP) float64 {
	flops := 0
	params := m.Params() // w0, b0, w1, b1, ...
	for i := 0; i+1 < len(params); i += 2 {
		flops += 2 * len(params[i])
	}
	return float64(flops)
}
