// Package stream models spatiotemporal document collections: a set of
// document streams D = {D_1[·], ..., D_n[·]}, each fixed at a geographic
// location (its geostamp), receiving sets of documents at discrete
// timestamps (§2 of the paper).
//
// Collection stores documents as packed posting lists and derives the
// views every other layer consumes: the per-term frequency surfaces
// D_x[i][t] of Eq. 6 for the pattern miners, the merged single-stream
// series for the temporal-only TB baseline of §6.3, and each term's
// packed postings (document, stream, time, count) in ascending document
// order for the search engine's indexer. Dictionary
// interns terms to the dense integer IDs used throughout the repository —
// including inside persisted pattern-index snapshots, which is why
// loaders that rebuild a collection from a corpus file must intern
// deterministically (see internal/corpusio).
//
// # Concurrency
//
// Loading (AddTokens, AddCounts, AddTermCounts, SetRetainCounts,
// Dictionary.ID) must happen from a single goroutine. Once loading is
// done, every read path — Surface, MergedSeries, Postings, Terms, Doc,
// Dict().Lookup/Term, and the rest of the accessors — is safe for
// unlimited concurrent use: the corpus-wide batch miners read one
// collection from many workers at once, and a serving process answers
// queries over it from many requests.
package stream
