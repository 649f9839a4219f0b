package stburst

import (
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

// Engine is one pattern kind's bursty-document search engine (§5 of the
// paper): it retrieves documents that are both relevant to the query and
// inside mined spatiotemporal burstiness patterns. Store.Query is the
// read path, and routes each query to the resident kinds' engines;
// PatternIndex.Engine and Run answer for a single kind.
type Engine struct {
	c    *Collection
	eng  *search.Engine
	kind Kind // the concrete pattern kind the engine serves
}

// Best returns the highest-scoring regional pattern of a slice, if any.
func Best(ws []RegionalPattern) (RegionalPattern, bool) { return core.BestWindow(ws) }
