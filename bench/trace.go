package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one replayed op share Op and Round; Parent is the
// index of the span that caused this one, -1 for the outermost.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Round  int    `json:"round"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced pass's spans in memory; they are written out
// once, when the run ends. A nil tracer records nothing, so the untraced
// pass pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex // the gateway's scatter records member spans concurrently
	t0    time.Time
	round int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its index for use as a parent.
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Op: op, Round: t.round, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return len(t.spans) - 1
}

// reserve holds a place for a span whose children are recorded while it
// is still open; fill completes it.
func (t *tracer) reserve() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{})
	return len(t.spans) - 1
}

func (t *tracer) fill(idx int, name string, op, parent int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[idx] = span{
		Name: name, Op: op, Round: t.round, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	}
}

// timeSpan runs fn and records it as a span.
func (t *tracer) timeSpan(name string, op, parent int, fn func()) int {
	start := time.Now()
	fn()
	return t.add(name, op, parent, start, time.Now())
}

type opRound struct{ op, round int }

// perOpRound folds the durations (ms) of every span called name into one
// value per (op, round): their sum, or their maximum when max is set
// (the slowest of the parallel parts a result waited for).
func (t *tracer) perOpRound(name string, max bool) map[opRound]float64 {
	out := map[opRound]float64{}
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		k := opRound{s.Op, s.Round}
		d := ms(s.End - s.Start)
		if max {
			if d > out[k] {
				out[k] = d
			}
		} else {
			out[k] += d
		}
	}
	return out
}

// opValues reduces per-(op, round) values to one value per op, the
// roundQuantile over its rounds, for the ops that keep passes (nil keeps
// all).
func opValues(vals map[opRound]float64, keep func(op int) bool) []float64 {
	byOp := map[int][]float64{}
	for k, v := range vals {
		if keep == nil || keep(k.op) {
			byOp[k.op] = append(byOp[k.op], v)
		}
	}
	meds := make([]float64, 0, len(byOp))
	for _, vs := range byOp {
		meds = append(meds, quantile(vs, roundQuantile))
	}
	return meds
}

// replayed applies the replay rule to per-(op, round) values: the median
// over ops of each op's roundQuantile over rounds. NaN when no op has a
// sample.
func replayed(vals map[opRound]float64, keep func(op int) bool) float64 {
	return median(opValues(vals, keep))
}

// layerMS is the replayed latency of the named span over the kept ops.
func (t *tracer) layerMS(name string, keep func(op int) bool) float64 {
	return replayed(t.perOpRound(name, false), keep)
}

// selfMS is the replayed value of a span's self time: its duration minus
// the part its children (sum, or the slowest when max is set) cover.
func (t *tracer) selfMS(parent, child string, max bool, keep func(op int) bool) float64 {
	p := t.perOpRound(parent, false)
	c := t.perOpRound(child, max)
	self := make(map[opRound]float64, len(p))
	for k, v := range p {
		self[k] = v - c[k]
	}
	return replayed(self, keep)
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"unit": "ns since trace start", "spans": t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
