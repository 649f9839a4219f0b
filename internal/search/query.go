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

// fetchRounds counts TopK retrieval rounds across all Run calls in the
// process. It exists so tests can assert that pathological pages — an
// Offset pointing past the last possible hit — resolve without grinding
// the progressive fetch-doubling through the whole index.
var fetchRounds atomic.Int64

// FetchRounds returns the cumulative number of TopK retrieval rounds
// executed by Run since process start.
func FetchRounds() int64 { return fetchRounds.Load() }

// Run executes a structured query: top-k retrieval with the Threshold
// Algorithm, the pattern-overlap post-filter for Region/Span, MinScore
// thresholding and Offset/K pagination. The context is checked between
// retrieval rounds, so long queries are cancellable; a cancelled context
// returns ctx.Err(). An empty term list yields an empty page, not an
// error.
func (e *Engine) Run(ctx context.Context, q Query) (Page, error) {
	if err := ctx.Err(); err != nil {
		return Page{}, err
	}
	if q.K <= 0 || q.Offset < 0 {
		return Page{}, nil
	}
	terms := q.Terms
	if len(terms) == 0 {
		return Page{}, nil
	}

	pass := e.overlapFilter(terms, q.Region, q.Span)
	need := q.Offset + q.K
	if need < 0 {
		return Page{}, nil // K+Offset overflowed; nothing sane to page
	}
	// The shortest query term's posting list bounds the result set: an
	// Offset at or past it can never land on a hit, so the page is empty
	// (More=false) without a single retrieval round — previously such a
	// request ground through the progressive fetch-doubling until the
	// index was exhausted.
	bound := e.idx.CandidateBound(terms)
	if q.Offset >= bound {
		return Page{}, nil
	}
	// Fetch one hit beyond the page to learn whether more exist; with a
	// post-filter in play, double the fetch depth until enough hits
	// survive or the index is exhausted. Fetches never exceed the
	// candidate bound: a request for everything the index can possibly
	// hold completes in one round instead of doubling past it. The
	// capacity hint is bounded: K/Offset are caller-controlled
	// (unauthenticated over HTTP), and the slice should grow with actual
	// hits, not with the request's ambition.
	capHint := need + 1
	if capHint > 4096 {
		capHint = 4096
	}
	kept := make([]Result, 0, capHint)
	fetch := need + 1
	if fetch > bound {
		fetch = bound
	}
	for {
		if err := ctx.Err(); err != nil {
			return Page{}, err
		}
		fetchRounds.Add(1)
		rs := e.idx.TopK(terms, fetch, index.MissingExcludes)
		exhausted := len(rs) < fetch || fetch >= bound
		kept = kept[:0]
		for _, r := range rs {
			if r.Score < q.MinScore {
				// Results are score-descending: nothing below the
				// threshold can follow a qualifying hit.
				exhausted = true
				break
			}
			if pass != nil && !pass(r.Doc) {
				continue
			}
			kept = append(kept, r)
			if len(kept) > need {
				break
			}
		}
		if len(kept) > need || exhausted {
			break
		}
		if fetch *= 2; fetch > bound {
			fetch = bound
		}
	}

	if q.Offset >= len(kept) {
		return Page{}, nil
	}
	end := q.Offset + q.K
	more := len(kept) > end
	if end > len(kept) {
		end = len(kept)
	}
	out := make([]Result, end-q.Offset)
	copy(out, kept[q.Offset:end])
	return Page{Results: out, More: more}, nil
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
