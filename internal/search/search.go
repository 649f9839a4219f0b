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
// pattern index instead of re-mining the corpus. For every term and every
// document containing it, the per-term score relevance × burstiness is
// added when the document overlaps at least one pattern of the term, the
// burstiness being the set's own (the kind's overlap notion; Eq. 11: no
// overlap means the document does not participate for this term). The
// engine retains the pattern set to answer spatiotemporally filtered
// queries (Query.Region / Query.Span).
func BuildFromPatterns(col *stream.Collection, ps *index.PatternSet) *Engine {
	b := ps.Burstiness()
	ix := index.New()
	for _, term := range col.Terms() {
		ids, freqs := col.TermDocs(term)
		for i, docID := range ids {
			d := col.Doc(docID)
			bs, ok := b(term, d.Stream, d.Time)
			if !ok || bs <= 0 {
				continue
			}
			rel := math.Log(float64(freqs[i]) + 1)
			ix.Add(term, docID, rel*bs)
		}
	}
	ix.Finalize()
	return &Engine{col: col, idx: ix, ps: ps, points: col.Points()}
}
