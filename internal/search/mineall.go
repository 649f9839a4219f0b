package search

import (
	"context"
	"sort"
	"sync/atomic"

	"stburst/internal/burst"
	"stburst/internal/core"
	"stburst/internal/index"
	"stburst/internal/par"
	"stburst/internal/stream"
)

// termsMined counts per-term miner invocations across all corpus-wide
// mining calls in the process. It exists so tests (and diagnostics) can
// assert that query paths backed by a pattern index never re-mine.
var termsMined atomic.Int64

// TermsMined returns the cumulative number of per-term mining invocations
// performed by the corpus-wide miners since process start.
func TermsMined() int64 { return termsMined.Load() }

// MineSets is the one corpus-wide miner: it re-mines the given terms for
// every pattern set in prev — each with its own kind's miner — and
// returns the refreshed sets in the same order. Mining the whole
// vocabulary from scratch is the call with col.Terms() and one
// index.EmptySet per wanted kind; an incremental refresh after an
// append is the call with the dirty terms and the resident sets, and
// because a term's patterns depend only on its own frequency
// surface the two agree bit for bit (the oracle tests assert fingerprint
// equality).
//
// One bounded worker pool (workers < 1 means one per CPU) drains a
// (term, kind) work list, term-major so a slow regional term overlaps
// cheap temporal work instead of the kinds running as sequential sweeps.
// Terms are mined in ascending ID order regardless of the caller's, each
// on a private miner instance over a private frequency surface, and
// results land in index-addressed slots, so the output is identical for
// every worker count. The prev sets are never modified: each refreshed
// set shares the untouched terms' pattern slices, so indexes built over
// prev keep serving while the pass runs. With no terms to mine prev is
// returned as it is. A cancelled context stops dispatching further terms
// and returns ctx.Err(); mining already in flight finishes its term
// first, so cancellation is prompt but never interrupts a miner mid-term.
func MineSets(ctx context.Context, col *stream.Collection, terms []int, prev []*index.PatternSet, o *index.MineOptions, workers int) ([]*index.PatternSet, error) {
	if len(terms) == 0 || len(prev) == 0 {
		return prev, nil
	}
	terms = append([]int(nil), terms...)
	sort.Ints(terms)
	mine := make([]func(i int), len(prev))
	refreshed := make([]func() *index.PatternSet, len(prev))
	for k, s := range prev {
		mine[k], refreshed[k] = s.Remine(col, terms, o)
	}
	if err := par.ForEachCtx(ctx, len(prev)*len(terms), workers, func(i int) {
		termsMined.Add(1)
		mine[i%len(prev)](i / len(prev))
	}); err != nil {
		return nil, err
	}
	out := make([]*index.PatternSet, len(prev))
	for k := range out {
		out[k] = refreshed[k]()
	}
	return out, nil
}

// The functions below are typed doors onto MineSets, kept for callers
// that work with the concrete per-kind maps. They add no behaviour.

// RemineDirtyParCtx re-mines the dirty terms of each kind with a non-nil
// prev map and returns the refreshed maps; a nil prev map skips its kind
// and returns nil for it. The prev maps are never mutated.
func RemineDirtyParCtx(ctx context.Context, col *stream.Collection, dirty []int,
	prevW map[int][]core.Window, prevC map[int][]core.CombPattern, prevT map[int][]burst.Interval,
	lopts core.STLocalOptions, copts core.STCombOptions, det burst.Detector, workers int,
) (map[int][]core.Window, map[int][]core.CombPattern, map[int][]burst.Interval, error) {
	var prev []*index.PatternSet
	if prevW != nil {
		prev = append(prev, index.NewWindowSet(prevW))
	}
	if prevC != nil {
		prev = append(prev, index.NewCombSet(prevC))
	}
	if prevT != nil {
		prev = append(prev, index.NewTemporalSet(prevT))
	}
	sets, err := MineSets(ctx, col, dirty, prev, &index.MineOptions{Local: lopts, Comb: copts, Temporal: det}, workers)
	if err != nil {
		return nil, nil, nil, err
	}
	// Each set answers nil for the kinds it does not hold.
	for _, s := range sets {
		if m := s.AllWindows(); m != nil {
			prevW = m
		}
		if m := s.AllCombs(); m != nil {
			prevC = m
		}
		if m := s.AllTemporal(); m != nil {
			prevT = m
		}
	}
	return prevW, prevC, prevT, nil
}

// MineAllKindsParCtx mines all three pattern kinds over the whole
// vocabulary in a single pass.
func MineAllKindsParCtx(ctx context.Context, col *stream.Collection, lopts core.STLocalOptions, copts core.STCombOptions, det burst.Detector, workers int) (map[int][]core.Window, map[int][]core.CombPattern, map[int][]burst.Interval, error) {
	return RemineDirtyParCtx(ctx, col, col.Terms(),
		map[int][]core.Window{}, map[int][]core.CombPattern{}, map[int][]burst.Interval{},
		lopts, copts, det, workers)
}

// MineWindowsParCtx runs STLocal over every term of the collection and
// returns the per-term maximal windows.
func MineWindowsParCtx(ctx context.Context, col *stream.Collection, opts core.STLocalOptions, workers int) (map[int][]core.Window, error) {
	ws, _, _, err := RemineDirtyParCtx(ctx, col, col.Terms(), map[int][]core.Window{}, nil, nil,
		opts, core.STCombOptions{}, nil, workers)
	return ws, err
}

// MineCombPatternsParCtx runs STComb over every term of the collection
// and returns the per-term combinatorial patterns.
func MineCombPatternsParCtx(ctx context.Context, col *stream.Collection, opts core.STCombOptions, workers int) (map[int][]core.CombPattern, error) {
	_, ps, _, err := RemineDirtyParCtx(ctx, col, col.Terms(), nil, map[int][]core.CombPattern{}, nil,
		core.STLocalOptions{}, opts, nil, workers)
	return ps, err
}

// MineTemporalParCtx extracts per-term temporal bursty intervals over the
// merged stream with the given detector (nil uses the discrepancy
// default).
func MineTemporalParCtx(ctx context.Context, col *stream.Collection, det burst.Detector, workers int) (map[int][]burst.Interval, error) {
	_, _, ivs, err := RemineDirtyParCtx(ctx, col, col.Terms(), nil, nil, map[int][]burst.Interval{},
		core.STLocalOptions{}, core.STCombOptions{}, det, workers)
	return ivs, err
}
