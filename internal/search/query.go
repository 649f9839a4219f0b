package search

import (
	"context"
	"sync/atomic"

	"stburst/internal/geo"
	"stburst/internal/index"
)

// Timespan is an inclusive timeframe [Start, End] on the collection's
// discrete timeline.
type Timespan = index.Timespan

// Query is a structured spatiotemporal search request over pre-interned
// term IDs (the caller tokenizes and interns; an unknown term zeroes the
// query before it gets here). Region and Span restrict hits to documents
// with a *contributing* pattern — one that overlaps the document for some
// query term — intersecting the given rectangle and/or timeframe (the
// pattern-overlap post-filter over Eq. 10/11 scoring). MinScore drops
// hits whose aggregate score falls below the threshold. Offset is where
// the caller will start paging the ranking: it only lets Rank skip a pass
// that could never reach it.
type Query struct {
	Terms    []int
	Region   *geo.Rect
	Span     *Timespan
	Offset   int
	MinScore float64
}

// passes counts the index passes (Cursors opened) across all Rank calls
// in the process. It exists so tests can assert that every page costs at
// most one pass, and that pathological pages — an Offset pointing past the
// last possible hit — cost none.
var passes atomic.Int64

// FetchRounds returns the cumulative number of index passes Rank has
// opened since process start: one per Rank that reaches the index.
func FetchRounds() int64 { return passes.Load() }

// Rank returns a query's ranking, to be paged with index.Page: one
// Threshold-Algorithm pass pulled through the pattern-overlap post-filter
// for Region/Span and ending at the first hit below MinScore. The
// shortest query term's posting list bounds the result set, so an Offset
// at or past it can never land on a hit: the ranking is then empty and no
// pass is opened. So is it for an empty term list or a context already
// cancelled, which index.Page reports as ctx.Err().
func (e *Engine) Rank(ctx context.Context, q Query) func() (Result, bool) {
	if ctx.Err() != nil || q.Offset < 0 || q.Offset >= e.idx.CandidateBound(q.Terms) {
		return noResults
	}
	passes.Add(1)
	return e.idx.Cursor(q.Terms).Where(ctx, q.MinScore, e.overlapFilter(q.Terms, q.Region, q.Span))
}

// noResults is the empty ranking.
func noResults() (Result, bool) { return Result{}, false }

// overlapFilter returns the post-filter for a query: a document survives
// iff, for some query term, a pattern of that term both overlaps the
// document (the same overlap notion used at indexing time) and intersects
// the query region/timespan (index.PatternSet.Filter). A nil filter means
// no restriction.
func (e *Engine) overlapFilter(terms []int, region *geo.Rect, span *Timespan) func(doc int) bool {
	if region == nil && span == nil {
		return nil
	}
	pass := e.ps.Filter(e.points, region, span)
	return func(doc int) bool {
		d := e.col.Doc(doc)
		for _, t := range terms {
			if pass(t, d.Stream, d.Time) {
				return true
			}
		}
		return false
	}
}
