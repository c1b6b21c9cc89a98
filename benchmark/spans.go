package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// layer names a span: the package (or harness phase) whose call it
// times. A traced episode is
// episode ⊃ decide ⊃ {coord.observe, coord.policy | agentnet.rtt},
// a traced set-up is
// setup ⊃ {graph.build, eval.instantiate, nn.load, coord.deploy, agentnet.dial},
// and traced training is train ⊃ rl.episode ⊃ {rl.rollout, rl.update}.
// The simulator's own time is the episode span's self time.
type layer uint8

const (
	spSetup layer = iota
	spGraphBuild
	spInstantiate
	spLoad
	spDeploy
	spDial
	spEpisode
	spDecide
	spObserve
	spPolicy
	spRTT
	spTrain
	spRLEpisode
	spRollout
	spUpdate
	numLayers
)

var layerNames = [numLayers]string{
	"setup", "graph.build", "eval.instantiate", "nn.load", "coord.deploy", "agentnet.dial",
	"episode", "decide", "coord.observe", "coord.policy", "agentnet.rtt",
	"train", "rl.episode", "rl.rollout", "rl.update",
}

func (l layer) String() string { return layerNames[l] }

// span is one timed call into a layer, recorded by the harness around
// the call (no file outside benchmark/ has a hook). Times are
// nanoseconds since the recorder started; Parent indexes the recorder's
// span list (-1: root); Flow is the simulated flow the call served
// (-1: none). It holds no pointers, so the garbage collector never scans
// the millions of spans a heuristic episode records.
type span struct {
	Start, End   int64
	Parent, Flow int32
	Layer        layer
}

func (s span) duration() int64 { return s.End - s.Start }

// recorder keeps the spans of one traced run in memory; they are
// aggregated, and optionally written as JSONL, when the run ends. It is
// not safe for concurrent use: every traced path runs on the
// simulator's single event-loop goroutine. A nil recorder records
// nothing, so set-up code is the same traced and untraced.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder(hint int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, hint)}
}

// reserve makes room for n more spans.
func (r *recorder) reserve(n int) {
	r.spans = append(make([]span, 0, len(r.spans)+n), r.spans...)
}

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(l layer, parent, flow int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Layer: l, Start: int64(time.Since(r.t0)), Parent: int32(parent), Flow: int32(flow)})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r != nil {
		r.spans[i].End = int64(time.Since(r.t0))
	}
}

// add records a span whose interval was measured elsewhere (the trainer
// reports update durations in its episode records).
func (r *recorder) add(l layer, start, end int64, parent int) int {
	r.spans = append(r.spans, span{Layer: l, Start: start, End: end, Parent: int32(parent), Flow: -1})
	return len(r.spans) - 1
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Children may overlap each other,
// so the covered part is the length of the union of the child
// intervals, clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.duration()
		kids := children[i]
		byStart := func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start }
		if !sort.SliceIsSorted(kids, byStart) {
			sort.Slice(kids, byStart)
		}
		reach := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				self[i] -= hi - lo
				reach = hi
			}
		}
	}
	return self
}

// selfByLayer sums the self times of the subtree rooted at root, per
// layer. The sums tile the root: they add up to its duration.
func selfByLayer(spans []span, root int) [numLayers]int64 {
	self := selfTimes(spans)
	in := make([]bool, len(spans))
	in[root] = true
	var out [numLayers]int64
	for i, s := range spans {
		// A parent is always recorded before its children.
		if i != root && (s.Parent < 0 || !in[s.Parent]) {
			continue
		}
		in[i] = true
		out[s.Layer] += self[i]
	}
	return out
}

// checkTiling verifies that the per-layer self times under a root span
// of duration total sum to it within 1 %. By construction they do; the
// check guards the arithmetic against a span that was never ended or
// that outlives its parent.
func checkTiling(layers [numLayers]int64, total int64) error {
	if total <= 0 {
		return fmt.Errorf("root span has no duration")
	}
	var sum int64
	for l, ns := range layers {
		if ns < 0 {
			return fmt.Errorf("layer %q has negative self time %d ns", layer(l), ns)
		}
		sum += ns
	}
	if share := float64(sum) / float64(total); share < 0.99 || share > 1.01 {
		return fmt.Errorf("layer shares sum to %.4f, want 1 ± 0.01", share)
	}
	return nil
}

// medianDuration is the median duration of a layer's spans, in
// nanoseconds.
func medianDuration(spans []span, l layer) float64 {
	var ds []float64
	for _, s := range spans {
		if s.Layer == l {
			ds = append(ds, float64(s.duration()))
		}
	}
	return median(ds)
}

// spanJSON is the JSONL form of a span.
type spanJSON struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Flow    int32  `json:"flow"`
}

// writeSpans writes one JSON object per span to path.
func writeSpans(path string, spans []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		if err := enc.Encode(spanJSON{i, s.Layer.String(), s.Start, s.End, s.Parent, s.Flow}); err != nil {
			return err
		}
	}
	return w.Flush()
}
