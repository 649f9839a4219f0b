package core

import (
	"fmt"

	"stburst/internal/expect"
	"stburst/internal/interval"
	"stburst/internal/maxseq"
)

// OnlineSTComb is the "purely online version of STComb" the paper lists
// as future work (§8). Offline STComb must recompute every stream's
// bursty intervals when new data arrives, because the B_T normalization
// of Eq. 1 depends on the series total. The online variant instead scores
// timestamps with the residual weights of Eq. 7 (observed − expected,
// exactly the quantity STLocal uses) and maintains each stream's maximal
// bursty intervals incrementally with an online Ruzzo–Tompa instance:
// Push costs O(n) amortized, and Patterns assembles the current interval
// set and runs the maxClique extraction on demand.
//
// Interval scores are therefore residual sums rather than the
// [0,1]-normalized B_T; ranking behaviour is preserved (bigger deviations
// score higher) but absolute pattern scores are not comparable between
// the two variants.
type OnlineSTComb struct {
	baselines []expect.Baseline
	rts       []maxseq.RuzzoTompa
	mass      []float64 // cumulative observed frequency per stream
	opts      OnlineSTCombOptions
	now       int
}

// OnlineSTCombOptions tunes the online miner. The zero value reproduces
// the defaults. The thresholds mirror STCombOptions' discrepancy-detector
// knobs, with one caveat: online interval scores are residual sums rather
// than the [0,1]-normalized B_T, so MinIntervalScore is on the residual
// scale.
type OnlineSTCombOptions struct {
	// Baseline creates the per-stream expected-frequency baselines; nil
	// uses the running-mean default.
	Baseline expect.Factory
	// MinIntervalScore drops per-stream intervals whose residual score is
	// at or below the threshold.
	MinIntervalScore float64
	// MinIntervalMass drops streams whose cumulative observed frequency
	// is below the threshold (a stream observed once has no burst
	// structure).
	MinIntervalMass float64
	// MaxPatterns bounds Patterns(0); 0 means all.
	MaxPatterns int
}

// NewOnlineSTCombOpts creates an online combinatorial miner over n
// streams with the given options.
func NewOnlineSTCombOpts(n int, opts OnlineSTCombOptions) *OnlineSTComb {
	baseline := opts.Baseline
	if baseline == nil {
		baseline = expect.NewRunningMean()
	}
	baselines := make([]expect.Baseline, n)
	for i := range baselines {
		baselines[i] = baseline()
	}
	return &OnlineSTComb{
		baselines: baselines,
		rts:       make([]maxseq.RuzzoTompa, n),
		mass:      make([]float64, n),
		opts:      opts,
	}
}

// Push processes one snapshot of per-stream frequencies.
func (o *OnlineSTComb) Push(observed []float64) error {
	if len(observed) != len(o.rts) {
		return fmt.Errorf("core: snapshot has %d streams, want %d", len(observed), len(o.rts))
	}
	for x, obs := range observed {
		o.mass[x] += obs
		o.rts[x].Add(obs - o.baselines[x].Next(obs))
	}
	o.now++
	return nil
}

// Timestamps returns the number of snapshots processed so far.
func (o *OnlineSTComb) Timestamps() int { return o.now }

// Patterns returns up to max combinatorial patterns (0 = all, capped by
// the options' MaxPatterns) over the bursty intervals accumulated so far,
// after the options' interval-score and stream-mass thresholds.
func (o *OnlineSTComb) Patterns(max int) []CombPattern {
	if max == 0 {
		max = o.opts.MaxPatterns
	}
	var ivs []interval.Interval
	for x := range o.rts {
		if o.mass[x] < o.opts.MinIntervalMass {
			continue
		}
		for _, seg := range o.rts[x].Maximals() {
			// Mirror burst.Discrepancy: keep only intervals scoring
			// strictly above the threshold (maximal Ruzzo–Tompa segments
			// score positively, so the zero threshold drops nothing).
			if seg.Score <= o.opts.MinIntervalScore {
				continue
			}
			ivs = append(ivs, interval.Interval{
				Start:  seg.Start,
				End:    seg.End - 1,
				Weight: seg.Score,
				Stream: x,
			})
		}
	}
	return cliquesToPatterns(interval.TopCliques(ivs, max))
}
