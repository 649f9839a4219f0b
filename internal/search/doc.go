// Package search implements the bursty-document search engine of §5 of
// the paper and the corpus-wide batch miners that feed it.
//
// # Scoring and retrieval
//
// Documents are scored per query term as relevance × burstiness (Eq. 10),
// where relevance is log(freq(t,d)+1) — the choice the paper found to
// work best — and burstiness is the maximum score of the mined
// spatiotemporal patterns of t that the document overlaps (Eq. 11, again
// the paper's best-performing aggregate f). Top-k retrieval runs on an
// inverted index via the Threshold Algorithm (internal/index).
//
// An Engine is built against one pattern type at a time (the paper: "a
// separate instance is required for each type"): regional windows
// (STLocal), combinatorial patterns (STComb), or purely temporal bursty
// intervals with all streams merged (the TB comparison engine of §6.3).
// BuildFromPatterns builds one from an existing index.PatternSet instead
// of re-mining — the set's Coverage paints each term's patterns onto a
// stream × time grid by the kind's overlap notion, taken from the kind
// table of internal/index, and each posting reads its cell — and retains
// the set for filtered queries. It reads each term's postings straight from
// the collection (stream.Collection.Postings carries stream, time and
// count). Engine.Refresh is the incremental form an ingest uses: it
// rebuilds only the dirty terms' index segments and shares the rest with
// the previous engine; BuildFromPatterns is a Refresh of an empty engine
// over every term of the set.
//
// # Structured queries
//
// Engine.Rank turns a Query over pre-interned term IDs into a ranking —
// a pull function — that is one TA pass (index.Cursor) through the
// spatiotemporal pattern-overlap post-filter (a hit survives only if a
// contributing pattern of some query term intersects the query Region
// and/or Span) and the MinScore floor, with the context checked during
// the pass so long queries cancel promptly. index.Page cuts the
// Offset/K window out of it. Tokenizing and interning free text is the
// caller's job (the root package's Engine.Run).
//
// # Corpus-wide batch mining
//
// MineSets mines any term list for any set of kinds across a bounded
// worker pool (internal/par) — the whole vocabulary from empty sets, or
// the dirty terms of an append against the resident sets: the term list
// is sorted into a deterministic work list, each worker mines one
// (term, kind) job at a time on private miner instances over private
// frequency surfaces, and results land in index-addressed slots — so the
// assembled sets are bit-identical for every worker count, and (because
// nothing depends on map iteration or the process hash seed) across runs
// and processes. A cancelled context stops dispatching terms and
// surfaces ctx.Err(). The typed per-kind functions (MineWindowsParCtx,
// RemineDirtyParCtx, ...) are doors onto it.
// TermsMined counts per-term miner invocations so tests can assert that
// index-backed query paths never re-mine.
package search
