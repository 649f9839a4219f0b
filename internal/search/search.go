package search

import (
	"math"

	"stburst/internal/geo"
	"stburst/internal/index"
	"stburst/internal/stream"
	"stburst/internal/textproc"
)

// Burstiness returns f(P_{t,d}) for a document from the given stream at
// the given timestamp, and whether any pattern of the term overlaps it
// (Eq. 11: no overlap means burstiness -inf, i.e. the document does not
// participate for this term).
type Burstiness func(term, streamIdx, time int) (float64, bool)

// Engine is a bursty-document search engine over one collection and one
// pattern type.
type Engine struct {
	col *stream.Collection
	idx *index.Index
	tok *textproc.Tokenizer
	// ps is the pattern set the engine was built from, when built through
	// BuildFromPatterns. It powers the spatiotemporal post-filter of Run;
	// engines built from a bare Burstiness closure (Build) have none and
	// reject filtered queries.
	ps *index.PatternSet
	// points caches the stream locations for combinatorial region checks.
	points []geo.Point
}

// Result is one retrieved document.
type Result = index.Result

// Build indexes the collection: for every term and every document
// containing it, the per-term score relevance × burstiness is added when
// the document overlaps at least one pattern of the term.
func Build(col *stream.Collection, b Burstiness) *Engine {
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
	return &Engine{col: col, idx: ix, tok: textproc.NewTokenizer()}
}

// Query retrieves the top-k documents for a whitespace-separated query
// string (terms are tokenized with the default pipeline, mirroring the
// indexing side).
func (e *Engine) Query(q string, k int) []Result {
	return e.QueryTerms(e.resolve(q), k)
}

// resolve tokenizes free text and interns the tokens; nil when nothing
// survives tokenization or some token is unknown to the collection
// (Eq. 10: a term with no patterns/documents zeroes the query).
func (e *Engine) resolve(text string) []int {
	var ids []int
	for _, t := range e.tok.Tokenize(text) {
		id, ok := e.col.Dict().Lookup(t)
		if !ok {
			return nil
		}
		ids = append(ids, id)
	}
	return ids
}

// QueryTerms retrieves the top-k documents for pre-interned term IDs.
func (e *Engine) QueryTerms(terms []int, k int) []Result {
	if len(terms) == 0 {
		return nil
	}
	rs := e.idx.TopK(terms, k, index.MissingExcludes)
	if len(rs) == 0 {
		return nil
	}
	return rs
}

// Index exposes the underlying inverted index (for diagnostics/tests).
func (e *Engine) Index() *index.Index { return e.idx }

// BuildFromPatterns indexes the collection against an already-mined
// pattern set of any kind: the engine-build path that consults the
// pattern index instead of re-mining the corpus, scoring each document
// with the set's Burstiness (the kind's overlap notion). Unlike Build,
// the resulting engine retains the pattern set and therefore answers
// spatiotemporally filtered queries (Query.Region / Query.Span).
func BuildFromPatterns(col *stream.Collection, ps *index.PatternSet) *Engine {
	e := Build(col, ps.Burstiness())
	e.ps = ps
	e.points = col.Points()
	return e
}
