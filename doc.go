// Package stburst is a Go implementation of the spatiotemporal term
// burstiness framework of Lappas, Vieira, Gunopulos and Tsotras,
// "On the Spatiotemporal Burstiness of Terms", PVLDB 5(9), 2012.
//
// Given a set of document streams fixed at geographic locations, the
// package simultaneously tracks when and where a term's frequency is
// unusually high, and mines two kinds of spatiotemporal patterns:
//
//   - Combinatorial patterns (STComb): arbitrary sets of streams that
//     were simultaneously bursty over a common temporal interval, found
//     as maximum-weight cliques on the intersection graph of per-stream
//     bursty intervals.
//
//   - Regional patterns (STLocal): axis-oriented rectangles on the map
//     together with the maximal timeframes over which the region was
//     bursty, maintained online as snapshots arrive.
//
// The mined patterns power a bursty-document search engine: given a
// query, it retrieves documents that discuss influential events with a
// strong spatiotemporal impact, scoring each document by per-term
// relevance × burstiness and answering top-k queries with the Threshold
// Algorithm over an inverted index.
//
// # Quick start
//
//	streams := []stburst.StreamInfo{
//	    {Name: "tokyo", Location: stburst.Point{X: 139.7, Y: 35.7}},
//	    {Name: "lima", Location: stburst.Point{X: -77.0, Y: -12.0}},
//	}
//	c := stburst.NewCollection(streams, 52) // 52 weekly timestamps
//	c.AddText(0, 17, "earthquake strikes near the coast ...")
//	// ... add more documents ...
//
//	patterns := c.RegionalPatterns("earthquake", nil)
//	ix, err := c.Mine(ctx, stburst.KindRegional, nil)
//	hits := ix.Search("earthquake", 10)
//
// # Structured queries
//
// Every mined pattern carries a Rect and a [Start, End] timeframe, and
// the Query type makes both first-class in retrieval: "bursty documents
// about X, in this region, during this timeframe". A hit survives a
// Region/Time filter only if, for some query term, a contributing
// pattern — one that overlaps the document — intersects the filter.
// Queries also paginate (K/Offset), threshold (MinScore), and honor
// context cancellation:
//
//	page, err := ix.Query(ctx, stburst.Query{
//	    Text:   "earthquake rescue",
//	    Region: &stburst.Rect{MinX: -80, MinY: -20, MaxX: -60, MaxY: 0},
//	    Time:   &stburst.Timespan{Start: 15, End: 20},
//	    K:      10,
//	})
//	// page.Hits is the filtered ranked page; page.More flags later pages.
//
// Engine.Search(query, k) remains as a thin free-text wrapper over the
// same path.
//
// # Corpus-wide batch mining
//
// Mining term by term does not scale to whole vocabularies.
// Collection.Mine fans the corpus out across a bounded worker pool
// (MineOptions.Parallelism < 1 uses one worker per CPU; any worker count
// yields bit-identical output), honors context cancellation on the way,
// and returns a PatternIndex — a cached, query-ready store that answers
// pattern lookups and repeated searches without ever re-mining:
//
//	ix, err := c.Mine(ctx, stburst.KindRegional,
//	    stburst.NewMineOptions(stburst.WithParallelism(0)))
//	top := ix.RegionalPatterns("earthquake")
//	hits := ix.Search("earthquake rescue", 10) // engine built once, cached
//
// PatternIndex.Patterns lists a term's stored patterns whatever the
// index's kind, as the kind-independent Pattern.
//
// # Bundles: mine once, serve many
//
// Mining is the expensive step; queries are cheap. A mined index
// persists — alone or beside the other kinds — as a bundle whose
// integrity is guarded by checksums and a canonical SHA-256 fingerprint
// per kind, so serving processes load in milliseconds instead of
// re-mining at boot:
//
//	store := stburst.NewStore(c)
//	store.Swap(stburst.KindRegional, ix)
//	f, _ := os.Create("patterns.bundle")
//	store.Save(f) // bundle = patterns + terms + fingerprints
//	f.Close()
//
//	// ... later, in a serving process over the same corpus:
//	f, _ = os.Open("patterns.bundle")
//	loaded, err := stburst.LoadStore(f, c) // verified on load
//	hits = loaded.Index(stburst.KindRegional).Search("earthquake rescue", 10)
//
// LoadCorpus rebuilds a Collection from the JSONL interchange format of
// cmd/stgen, interning deterministically so bundles round-trip across
// processes with byte-identical fingerprints.
//
// # The multi-kind store
//
// The paper's three burstiness models (regional, combinatorial,
// temporal) expose different facets of the same corpus. A Store holds
// one PatternIndex per Kind over a shared Collection and serves them
// side by side: Query.Kind routes a query to one model, and KindAny —
// the zero Kind, so an absent "kind" in the JSON shape — fans out to
// every resident index and merges the rankings by score, tagging each
// Hit with the Kind that scored it. MineStore mines all three kinds in
// one pass over a single worker pool:
//
//	store, err := c.MineStore(ctx, nil) // (term, kind) work list, one pool
//	page, err := store.Query(ctx, stburst.Query{Text: "earthquake", K: 10})
//	for _, h := range page.Hits {
//	    fmt.Println(h.Kind, h.Doc.ID, h.Score) // per-model attribution
//	}
//
// Store.Save writes every resident kind into the one bundle — a
// manifest of per-kind members under one stream checksum — and
// LoadStore makes them all resident again, every layer verified.
//
// The resident set lives behind one atomic pointer, so a long-running
// service hot-swaps freshly mined indexes without pausing queries:
// Store.Swap(kind, ix) replaces one kind, Store.Replace installs a
// whole new set in a single atomic step, and queries in flight keep the
// set they resolved.
//
// # Live ingestion
//
// The paper's corpus is a continuously arriving stream, so a mined
// store is not the end of the story: Collection.Append publishes
// freshly arrived documents atomically under any number of concurrent
// readers and reports the dirty terms — the ones whose patterns went
// stale — and Store.Ingest builds the whole write path from it: append
// the batch, re-mine only the dirty terms per resident kind (per-term
// mining depends only on that term's own streams, so the refreshed
// indexes are bit-identical to a from-scratch MineStore over the
// appended corpus), warm the engines, and install the refreshed set
// with the same atomic Replace a reload uses:
//
//	res, err := store.Ingest(ctx, []stburst.IncomingDocument{
//	    {Stream: 0, Time: 18, Text: "aftershocks rattle the coast"},
//	})
//	// res.Generation: cache-busting token; res.DirtyTerms: re-mined terms
//
// A document carries its body as Text, as pre-split Tokens or as
// pre-counted Counts (the corpus file's own shape); whichever door it
// came through, one validator checks its stream, its timestamp and
// that every term count fits a posting before anything is logged or
// applied.
//
// Every store mutation (Swap, Replace, Ingest) advances the
// monotonically increasing Store.Generation, which bundles persist and
// LoadStore restores, so clients can cache-bust across restarts. A
// server's write surface ingests through an Ingester, a sealable door
// onto Store.Ingest: each Add is one batch, installed before it returns,
// and Close refuses every later Add so shutdown can close the log:
//
//	ing := stburst.NewIngester(store)
//	defer ing.Close()
//	res, err := ing.Add(ctx, stburst.IncomingDocument{Stream: 1, Time: 18, Text: "..."})
//
// The CLI pipeline mirrors the API: stgen generates a corpus,
// stmine -all -method all -o mines it into a bundle, and stserve loads
// the bundle and serves the versioned /v1 JSON API — POST /v1/search
// (the Query JSON shape, including "kind"), GET /v1/patterns/{term}
// with kind/region/from/to filters, GET /v1/indexes, POST /v1/documents
// (live batch ingest, behind the -ingest flag) with GET /v1/generation
// for cache-busting, POST /v1/reload (atomic snapshot reload — now the
// cold-path alternative to live ingestion), /v1/stats and /v1/healthz —
// off the immutable indexes.
//
// See README.md for the CLI tour, the examples directory for runnable
// end-to-end programs, and DESIGN.md for the system inventory, the
// request flow of the /v1 service, the snapshot and bundle format
// specifications and the concurrency contracts of the mining engine;
// cmd/stbench reproduces every table and figure of the paper's
// evaluation.
package stburst
