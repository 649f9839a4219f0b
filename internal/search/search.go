package search

import (
	"math"

	"stburst/internal/geo"
	"stburst/internal/index"
	"stburst/internal/stream"
)

// Engine is a bursty-document search engine over one collection and one
// pattern set.
type Engine struct {
	col *stream.Collection
	idx *index.Index
	// ps is the pattern set the engine was built from; it powers the
	// spatiotemporal post-filter of Rank.
	ps *index.PatternSet
	// points caches the stream locations for combinatorial region checks.
	points []geo.Point
}

// Result is one retrieved document.
type Result = index.Result

// Index exposes the underlying inverted index (for diagnostics/tests).
func (e *Engine) Index() *index.Index { return e.idx }

// BuildFromPatterns indexes the collection against an already-mined
// pattern set of any kind — the engine-build path that consults the
// pattern index instead of re-mining the corpus: a Refresh of an empty
// engine for every term of the set. The engine retains the pattern set
// to answer spatiotemporally filtered queries (Query.Region /
// Query.Span).
func BuildFromPatterns(col *stream.Collection, ps *index.PatternSet) *Engine {
	return (&Engine{col: col, points: col.Points()}).Refresh(ps, ps.Terms())
}

// Refresh returns the engine over ps, a pattern set whose dirty terms —
// and only those — differ from e's set or gained documents since e was
// built. Each dirty term's posting list is rebuilt: for every document
// containing the term, the per-term score relevance × burstiness is kept
// when the document overlaps at least one pattern of the term, the
// burstiness being the set's own (the kind's overlap notion; Eq. 11: no
// overlap means the document does not participate for this term). Every
// other term's list is shared with e, which keeps serving unmodified.
func (e *Engine) Refresh(ps *index.PatternSet, dirty []int) *Engine {
	cov := ps.Coverage(e.col.NumStreams(), e.col.Length())
	idx := e.idx.With(dirty, func(term int) []index.Posting {
		cov.Paint(term)
		postings := e.col.Postings(term)
		// Count the kept postings first, so the list the index retains
		// is allocated once at its exact size.
		n := 0
		for _, p := range postings {
			if bs, _ := cov.At(int(p.Stream), int(p.Time)); bs > 0 {
				n++
			}
		}
		if n == 0 {
			return nil
		}
		list := make([]index.Posting, 0, n)
		for _, p := range postings {
			if bs, _ := cov.At(int(p.Stream), int(p.Time)); bs > 0 {
				rel := math.Log(float64(p.Count) + 1)
				list = append(list, index.Posting{Doc: int(p.Doc), Score: rel * bs})
			}
		}
		return list
	})
	return &Engine{col: e.col, idx: idx, ps: ps, points: e.points}
}
