package stburst

import (
	"context"

	"stburst/internal/core"
	"stburst/internal/search"
)

// Hit is one retrieved document with its aggregate score (Eq. 10 of the
// paper: Σ_t relevance × burstiness). Kind attributes the hit to the
// burstiness model that retrieved it — under a KindAny fan-out through
// Store.Query, the same document can appear once per resident kind,
// each appearance scored by that kind's patterns.
type Hit struct {
	Doc    Document
	Score  float64
	Stream string // name of the originating stream
	Kind   Kind   // pattern kind that scored the hit
}

// Engine is a bursty-document search engine (§5 of the paper): it
// retrieves documents that are both relevant to the query and inside
// mined spatiotemporal burstiness patterns. Build one with
// Collection.Mine and PatternIndex.Engine; structured queries — including
// Region/Time filters, pagination and score thresholds — go through Run,
// and Search remains the free-text convenience wrapper.
type Engine struct {
	c    *Collection
	eng  *search.Engine
	kind Kind // the concrete pattern kind the engine serves
}

// Search retrieves the top-k documents for a free-text query. Documents
// must overlap a burstiness pattern of every query term (Eq. 10/11). It
// is a thin wrapper over Run with no spatiotemporal filter; use Run for
// Region/Time restrictions, pagination and score thresholds.
func (e *Engine) Search(query string, k int) []Hit {
	if k <= 0 {
		return nil
	}
	page, err := e.Run(context.Background(), Query{Text: query, K: k})
	if err != nil || len(page.Hits) == 0 {
		return nil
	}
	return page.Hits
}

// Best returns the highest-scoring regional pattern of a slice, if any.
func Best(ws []RegionalPattern) (RegionalPattern, bool) { return core.BestWindow(ws) }
