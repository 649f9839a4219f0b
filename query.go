package stburst

import (
	"context"
	"fmt"
	"math"

	"stburst/internal/index"
	"stburst/internal/search"
	"stburst/internal/textproc"
)

// Timespan is an inclusive timeframe [Start, End] on the collection's
// discrete timeline, the temporal half of every mined pattern.
type Timespan = index.Timespan

// Query is a structured spatiotemporal search request, the first-class
// way to ask the §5 retrieval model for "bursty documents about X, in
// this region, during this timeframe".
//
// Exactly one of Text (free text, tokenized with the collection's
// pipeline) or Terms (pre-normalized query terms) must be set. Kind
// selects which burstiness model answers: a concrete kind routes the
// query to that pattern index, and KindAny (the zero value, so an
// absent kind in JSON) makes Store.Query fan out to every resident
// index and merge the hits; single-index surfaces (Engine.Run,
// PatternIndex.Query) accept KindAny and their own kind only. Region and
// Time restrict the hits to documents with a contributing pattern — a
// pattern of some query term that overlaps the document — intersecting
// the rectangle and/or timeframe: regional windows intersect through
// their rectangle, combinatorial patterns through their member streams'
// locations, and temporal intervals (mined on the merged stream,
// deliberately geography-free) span the whole map. MinScore drops hits
// scoring below the threshold, and Offset/K page through the ranked list.
//
// The zero K asks for DefaultK results.
type Query struct {
	Text     string    `json:"text,omitempty"`
	Terms    []string  `json:"terms,omitempty"`
	Kind     Kind      `json:"kind,omitempty"`
	Region   *Rect     `json:"region,omitempty"`
	Time     *Timespan `json:"time,omitempty"`
	K        int       `json:"k,omitempty"`
	Offset   int       `json:"offset,omitempty"`
	MinScore float64   `json:"min_score,omitempty"`
}

// DefaultK is the page size used when Query.K is zero.
const DefaultK = 10

// MaxK bounds Query.K and Query.Offset. Queries are an unauthenticated
// surface through cmd/stserve, and both values size retrieval work —
// without a ceiling a single request could demand a multi-gigabyte page.
const MaxK = 1 << 20

// Validate checks the query's shape: exactly one of Text or Terms set,
// K and Offset in [0, MaxK], a finite MinScore, a non-inverted Region
// (zero-area rectangles are valid: Rect is closed, so a degenerate
// rectangle still intersects patterns containing that point) and a
// non-inverted Time. It does not consult any collection — unknown terms
// are not an error, they simply match nothing (Eq. 10).
func (q Query) Validate() error {
	hasText := q.Text != ""
	hasTerms := len(q.Terms) > 0
	switch {
	case !hasText && !hasTerms:
		return fmt.Errorf("stburst: query needs Text or Terms")
	case hasText && hasTerms:
		return fmt.Errorf("stburst: query must set exactly one of Text or Terms")
	}
	if _, ok := q.Kind.patternKind(); !ok && q.Kind != KindAny {
		return fmt.Errorf("stburst: query Kind %d is not a pattern kind", int(q.Kind))
	}
	if q.K < 0 || q.K > MaxK {
		return fmt.Errorf("stburst: query K must be in [0, %d], got %d", MaxK, q.K)
	}
	if q.Offset < 0 || q.Offset > MaxK {
		return fmt.Errorf("stburst: query Offset must be in [0, %d], got %d", MaxK, q.Offset)
	}
	if math.IsNaN(q.MinScore) || math.IsInf(q.MinScore, 0) {
		return fmt.Errorf("stburst: query MinScore must be finite")
	}
	if r := q.Region; r != nil && (r.MinX > r.MaxX || r.MinY > r.MaxY) {
		return fmt.Errorf("stburst: query Region is inverted: %v", *r)
	}
	if t := q.Time; t != nil && t.Start > t.End {
		return fmt.Errorf("stburst: query Time is inverted: [%d, %d]", t.Start, t.End)
	}
	return nil
}

// tokenizer is the one tokenization pipeline of every collection, query
// and subscription: bundle portability, shard routing and subscription
// normalization all assume terms are normalized identically everywhere.
var tokenizer = textproc.NewTokenizer()

// NormalizeTerm returns the dictionary form every single-term lookup
// keys on: the first token of the tokenization pipeline, or term itself
// when no token survives. Shard routing hashes this form, so a term
// lands on the shard whose bundle holds it.
func NormalizeTerm(term string) string {
	if toks := tokenizer.Tokenize(term); len(toks) > 0 {
		return toks[0]
	}
	return term
}

// Tokens returns the query's terms as collections normalize them: Text
// tokenized, or Terms tokenized entry by entry (a multi-word entry
// contributes every token), in occurrence order with duplicates kept —
// the per-term score fold of Eq. 10 depends on both. Engine.Run resolves
// exactly these tokens, and the stgate coordinator routes them to shards.
func (q Query) Tokens() []string {
	if len(q.Terms) == 0 {
		return tokenizer.Tokenize(q.Text)
	}
	var toks []string
	for _, t := range q.Terms {
		toks = append(toks, tokenizer.Tokenize(t)...)
	}
	return toks
}

// k returns the effective page size.
func (q Query) k() int {
	if q.K == 0 {
		return DefaultK
	}
	return q.K
}

// ResultPage is one window of a ranked result list.
type ResultPage struct {
	// Hits holds the hits [Offset, Offset+K) of the filtered ranked list;
	// nil when the page is past the end of the results.
	Hits []Hit
	// More reports whether hits beyond this page exist.
	More bool
}

// Run executes a structured query against the engine's mined patterns:
// one Threshold-Algorithm pass pulled through the spatiotemporal
// pattern-overlap post-filter for Region/Time, MinScore thresholding and
// Offset/K pagination until the page is full. The context is checked
// during the pass, so long queries are cancellable; a cancelled context
// returns ctx.Err(). A query term absent from every pattern yields an
// empty page, not an error. Plain Search(query, k) is a thin wrapper over
// Run.
//
// An Engine answers for one pattern kind: Query.Kind must be KindAny or
// the engine's own kind. Asking a single-kind engine for a different
// kind is a caller error, not an empty result — use Store.Query to
// route across kinds.
func (e *Engine) Run(ctx context.Context, q Query) (ResultPage, error) {
	if err := q.Validate(); err != nil {
		return ResultPage{}, err
	}
	if q.Kind != KindAny && q.Kind != e.kind {
		return ResultPage{}, fmt.Errorf("stburst: query asks for %v patterns but the engine serves %v (route multi-kind queries through a Store)", q.Kind, e.kind)
	}
	hits, more, err := index.Page(ctx, e.rank(ctx, q), q.Offset, q.k())
	if err != nil {
		return ResultPage{}, err
	}
	return ResultPage{Hits: hits, More: more}, nil
}

// rank returns a validated query's ranking on this engine, hits best
// first; its Offset only lets the engine skip a pass that cannot reach
// the page.
func (e *Engine) rank(ctx context.Context, q Query) func() (Hit, bool) {
	sq := search.Query{Offset: q.Offset, MinScore: q.MinScore, Region: q.Region, Span: q.Time}
	for _, tok := range q.Tokens() {
		id, ok := e.c.col.Dict().Lookup(tok)
		if !ok {
			return noHits // a term the collection has never seen matches nothing: Eq. 10
		}
		sq.Terms = append(sq.Terms, id)
	}
	next := e.eng.Rank(ctx, sq)
	return func() (Hit, bool) {
		r, ok := next()
		if !ok {
			return Hit{}, false
		}
		d := e.c.Doc(r.Doc)
		return Hit{Doc: d, Score: r.Score, Stream: e.c.Stream(d.Stream).Name, Kind: e.kind}, true
	}
}

// noHits is the empty ranking.
func noHits() (Hit, bool) { return Hit{}, false }

// Query executes a structured query against the stored patterns, building
// the cached engine on first use. See Engine.Run.
func (ix *PatternIndex) Query(ctx context.Context, q Query) (ResultPage, error) {
	return ix.Engine().Run(ctx, q)
}
