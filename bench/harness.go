package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// class is a set of homogeneous ops. A class's latency is the median
// over its ops of each op's latency t_i (see roundQuantile).
type class struct {
	Name string
	// Side classes feed side_ms; the others are the workload's main
	// classes and feed main_ms.
	Side bool
	// Units is the number of work units one op completes.
	Units float64
}

// plan is a workload's fixed op list: a pure function of the seed.
type plan struct {
	Classes     []class
	OpClass     []int // class of op i, in replay order
	Unit        string
	MinRounds   int
	Fingerprint string // digest of the op list
}

type mode int

const (
	modeWarm   mode = iota // untimed warm-up round: answers checked against the oracle
	modeTimed              // the gated, untraced pass
	modeTraced             // the traced pass: spans recorded around the layer calls
)

// env is what the harness hands a workload.
type env struct {
	seed int64
	size sizing
	dir  string // this run's scratch directory
	mode mode
	tr   *tracer // non-nil only in the traced pass
	// wallOpsPerS is the untraced pass's raw rate, ops over the wall time
	// of the op loops: reported, never gated.
	wallOpsPerS float64
}

// workload is one set of inputs the benchmark replays.
type workload interface {
	// prepare builds the immutable artifacts (corpus, mined bundle) and
	// the op list. It runs once.
	prepare() error
	// boot turns the artifacts into live serving state, as a restart of
	// the shipped binary would. It runs several times; the last state
	// stays.
	boot() error
	plan() plan
	// beginRound resets mutable state, outside any timed op.
	beginRound() error
	// do runs op i once and reports its latency and, for an op long
	// enough that a stolen timeslice cannot miss it (see netOfSteal), the
	// time stolen while it ran; a non-nil error (a non-2xx status, a
	// wrong answer) counts the op as failed.
	do(i int) (d, lost time.Duration, err error)
	// endRound tears the round's state down and runs the round's untimed
	// checks; a non-nil error counts as one failed op.
	endRound() error
	// layers finishes the traced pass: measurements that need their own
	// state, then the per-layer metrics from the spans.
	layers() (map[string]float64, error)
	close()
}

// bootReps is how many times a run boots; setup_s takes the boots'
// roundQuantile.
const bootReps = 3

// roundQuantile is the order statistic that reduces an op's R timings to
// its latency t_i: the lower quartile. Noise on a shared host only ever
// adds time — a stolen timeslice, a neighbour on the sibling
// hyperthread, a GC cycle started by the op before — and it comes in
// stretches that can cover most of a run, so the median of the R
// timings moves with how busy the neighbours were (10–50 % between runs
// of one build in scratch) while the lower quartile stays put as long
// as a quarter of the rounds ran undisturbed. Unlike the minimum it
// does not keep falling as R grows.
const roundQuantile = 0.25

// replay holds the timings of one pass.
type replay struct {
	times     [][]float64 // [op] → latency (ms) in each round that ran it
	lost      [][]float64 // [op] → time stolen (ms) while it ran, same rounds
	rounds    int
	attempted int
	failed    int
	errs      []string
	loopNS    int64 // wall time spent inside the op loops
	steal     float64
}

func (r *replay) record(op int, d, lost time.Duration, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, fmt.Sprintf("op %d: %v", op, err))
		}
		return
	}
	r.times[op] = append(r.times[op], ms(d.Nanoseconds()))
	r.lost[op] = append(r.lost[op], ms(lost.Nanoseconds()))
}

// runRounds replays the op list until the time budget is spent, and for
// at least minRounds rounds. A forced GC runs between rounds, outside
// any timed op.
func runRounds(w workload, e *env, budget time.Duration, minRounds int) (*replay, error) {
	p := w.plan()
	r := &replay{times: make([][]float64, len(p.OpClass)), lost: make([][]float64, len(p.OpClass))}
	ticks := readCPUTicks()
	start := time.Now()
	for r.rounds < minRounds || time.Since(start) < budget {
		if e.tr != nil {
			e.tr.round = r.rounds
		}
		runtime.GC()
		if err := w.beginRound(); err != nil {
			return nil, fmt.Errorf("round %d: %w", r.rounds, err)
		}
		loop := time.Now()
		for i := range p.OpClass {
			d, lost, err := w.do(i)
			r.record(i, d, lost, err)
		}
		r.loopNS += time.Since(loop).Nanoseconds()
		if err := w.endRound(); err != nil {
			r.record(len(p.OpClass), 0, 0, fmt.Errorf("round %d: %w", r.rounds, err))
		}
		r.rounds++
	}
	r.steal = stealShare(ticks, readCPUTicks())
	return r, nil
}

// takeOutSteal ends a pass: the timings of every class whose ops report
// stolen time are taken net of it (see netOfSteal). What a stolen
// millisecond costs an op depends on the op's shape — all of it when the
// op runs on one CPU, about half when it keeps both busy, more when the
// neighbour also evicted its cache — so the weight is not assumed but
// fitted, per class, to the pass's own (latency, stolen) pairs: steal
// comes in chunks, so the same op loses different amounts in different
// rounds, and the least-squares slope of latency on loss within ops is
// what one stolen millisecond added. The traced pass, which has few
// rounds to fit to, is handed the gated pass's weights.
func (r *replay) takeOutSteal(p plan, weights []float64) []float64 {
	fitted := make([]float64, len(p.Classes))
	for c := range p.Classes {
		var sxy, sxx float64
		for i, oc := range p.OpClass {
			if oc != c || len(r.times[i]) == 0 {
				continue
			}
			mt, ml := mean(r.times[i]), mean(r.lost[i])
			for k, t := range r.times[i] {
				sxy += (t - mt) * (r.lost[i][k] - ml)
				sxx += (r.lost[i][k] - ml) * (r.lost[i][k] - ml)
			}
		}
		if sxx == 0 {
			continue // nothing stolen, or the same from every sample
		}
		weight := min(max(sxy/sxx, 0), maxStealWeight)
		if weights != nil {
			weight = weights[c]
		}
		fitted[c] = weight
		for i, oc := range p.OpClass {
			if oc != c {
				continue
			}
			for k, t := range r.times[i] {
				r.times[i][k] = netOfSteal(t, weight*r.lost[i][k])
			}
		}
	}
	return fitted
}

// maxStealWeight caps the fitted cost of a stolen millisecond.
const maxStealWeight = 1.25

// opLatencies returns t_i for every op of the class: the roundQuantile
// of the op's timings.
func (r *replay) opLatencies(p plan, c int) []float64 {
	var out []float64
	for i, oc := range p.OpClass {
		if oc == c && len(r.times[i]) > 0 {
			out = append(out, quantile(r.times[i], roundQuantile))
		}
	}
	return out
}

// classReport is one class's line in the report: its latency and the
// ungated tails over the ops' t_i, with the sample counts behind them.
type classReport struct {
	Name    string  `json:"name"`
	Side    bool    `json:"side"`
	Ops     int     `json:"ops"`
	Samples int     `json:"samples"`
	P50     float64 `json:"p50_ms"`
	P90     float64 `json:"p90_ms"`
	P99     float64 `json:"p99_ms"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one workload run reports.
type result struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Unit         string            `json:"work_unit"`
	Rounds       int               `json:"rounds"`
	TracedRounds int               `json:"traced_rounds,omitempty"`
	Fingerprint  string            `json:"op_list_fingerprint"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	Correct      bool              `json:"correct"`
	Noisy        bool              `json:"noisy"`
	Errors       []string          `json:"errors,omitempty"`
	EndToEnd     map[string]metric `json:"end_to_end"`
	PerLayer     map[string]metric `json:"per_layer,omitempty"`
	Classes      []classReport     `json:"classes"`
}

// gated derives the latency metrics of a pass by the replay rule.
func gated(p plan, r *replay) (mainMS, sideMS, opsPerS float64, classes []classReport) {
	var mains, sides []float64
	var units, roundMS float64
	for c, cl := range p.Classes {
		ts := r.opLatencies(p, c)
		lat := median(ts)
		samples := 0
		n := 0
		for i, oc := range p.OpClass {
			if oc == c {
				n++
				samples += len(r.times[i])
			}
		}
		classes = append(classes, classReport{
			Name: cl.Name, Side: cl.Side, Ops: n, Samples: samples,
			P50: lat, P90: quantile(ts, 0.9), P99: quantile(ts, 0.99),
		})
		if cl.Side {
			sides = append(sides, lat)
		} else {
			mains = append(mains, lat)
		}
		units += cl.Units * float64(n)
		roundMS += float64(n) * lat
	}
	return mean(mains), mean(sides), units * 1000 / roundMS, classes
}

// runWorkload runs one workload in this process: set-up, the gated
// untraced pass, and — when traced — the traced pass after it.
func runWorkload(name string, seed int64, size sizing, budget time.Duration, tracePath, scratch string, started stamp) (*result, error) {
	dir, err := os.MkdirTemp(scratch, name+"-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, size: size, dir: dir}
	w, err := newWorkload(name, e)
	if err != nil {
		return nil, err
	}
	defer w.close()

	// Set-up: the one-off artifacts, then the boot several times over
	// (their roundQuantile counts), then one untimed warm-up round that checks
	// every answer against the oracle.
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", name, err)
	}
	// Every piece of the set-up is long, so each is taken net of steal.
	last := started
	lap := func() float64 {
		t := now()
		d := netOfSteal(t.at.Sub(last.at), stolen(last.ticks, t.ticks))
		last = t
		return d.Seconds()
	}
	setup := lap()
	boots := make([]float64, bootReps)
	for i := range boots {
		if err := w.boot(); err != nil {
			return nil, fmt.Errorf("%s: boot: %w", name, err)
		}
		boots[i] = lap()
	}
	setup += quantile(boots, roundQuantile)
	p := w.plan()
	e.mode = modeWarm
	warm, err := runRounds(w, e, 0, 1)
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", name, err)
	}
	setup += lap()

	e.mode = modeTimed
	r, err := runRounds(w, e, budget, p.MinRounds)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	weights := r.takeOutSteal(p, nil)
	mainMS, sideMS, opsPerS, classes := gated(p, r)
	res := &result{
		Workload: name, Seed: seed, Unit: p.Unit, Rounds: r.rounds, Fingerprint: p.Fingerprint,
		Attempted: warm.attempted + r.attempted, Failed: warm.failed + r.failed,
		Errors: append(warm.errs, r.errs...), Classes: classes,
		Noisy: r.steal > noisySteal,
		EndToEnd: map[string]metric{
			"setup_s":     {setup, "s"},
			"main_ms":     {mainMS, "ms"},
			"side_ms":     {sideMS, "ms"},
			"ops_per_s":   {opsPerS, "1/s"},
			"peak_rss_mb": {peakRSSMB(), "MB"},
		},
	}

	if tracePath != "" {
		e.wallOpsPerS = float64(r.attempted) / (float64(r.loopNS) / 1e9)
		e.mode = modeTraced
		e.tr = newTracer()
		tr, err := runRounds(w, e, budget, size.TracedMinRounds)
		if err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", name, err)
		}
		layer, err := w.layers()
		if err != nil {
			return nil, fmt.Errorf("%s: layers: %w", name, err)
		}
		tr.takeOutSteal(p, weights)
		tracedMain, _, _, _ := gated(p, tr)
		layer["trace.overhead_share"] = tracedMain/mainMS - 1
		layer["host.steal_share"] = r.steal
		layer["host.loadavg"] = loadAvg1()
		res.TracedRounds = tr.rounds
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		res.Errors = append(res.Errors, tr.errs...)
		res.PerLayer = map[string]metric{}
		for _, def := range perLayerDefs {
			v, ok := layer[def.Name]
			delete(layer, def.Name)
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				continue // not measured: no span of the layer was recorded
			}
			res.PerLayer[def.Name] = metric{v, def.Unit}
		}
		for name := range layer {
			return nil, fmt.Errorf("%s: per-layer metric %q has no definition", res.Workload, name)
		}
		if err := e.tr.write(tracePath); err != nil {
			return nil, err
		}
	}
	for name, m := range res.EndToEnd {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
			res.Failed++
			res.Errors = append(res.Errors, fmt.Sprintf("metric %s = %v", name, m.Value))
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}
