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
// pattern-overlap post-filter over Eq. 10/11 scoring). MinScore drops hits whose aggregate score falls
// below the threshold, and Offset/K window the surviving ranked list.
type Query struct {
	Terms    []int
	Region   *geo.Rect
	Span     *Timespan
	K        int
	Offset   int
	MinScore float64
}

// Page is one window of a ranked result list.
type Page struct {
	Results []Result
	// More reports whether hits beyond this page exist (i.e. a request
	// with a larger Offset would return something).
	More bool
}

// passes counts the index passes (Cursors opened) across all Run calls
// in the process. It exists so tests can assert that every page costs at
// most one pass, and that pathological pages — an Offset pointing past the
// last possible hit — cost none.
var passes atomic.Int64

// FetchRounds returns the cumulative number of index passes Run has made
// since process start: one per Run that reaches the index.
func FetchRounds() int64 { return passes.Load() }

// Run executes a structured query: one Threshold-Algorithm pass pulled
// through the pattern-overlap post-filter for Region/Span until the
// Offset/K page is full, stopping at the first hit below MinScore. The
// context is checked on entry and during the pass, so long queries are
// cancellable; a cancelled context returns ctx.Err(). An empty term list
// yields an empty page, not an error.
func (e *Engine) Run(ctx context.Context, q Query) (Page, error) {
	if err := ctx.Err(); err != nil {
		return Page{}, err
	}
	// The shortest query term's posting list bounds the result set: an
	// Offset at or past it can never land on a hit, so the page is empty
	// (More=false) without touching the index.
	if q.K <= 0 || q.Offset < 0 || q.Offset >= e.idx.CandidateBound(q.Terms) {
		return Page{}, nil
	}
	passes.Add(1)
	pass := e.overlapFilter(q.Terms, q.Region, q.Span)
	hits, more, err := e.idx.Cursor(q.Terms).Page(ctx, q.Offset, q.K, q.MinScore, pass)
	if err != nil {
		return Page{}, err
	}
	return Page{Results: hits, More: more}, nil
}

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
