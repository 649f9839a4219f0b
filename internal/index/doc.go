// Package index holds the query-side data structures of the system: the
// inverted index with Threshold Algorithm top-k retrieval, the kind
// table that says what a pattern kind is, the immutable corpus-wide
// pattern store, and the bundle codec that persists it.
//
// # Inverted index and the Threshold Algorithm
//
// Index maps each term to one immutable segment: the term's postings
// held twice, by per-term document score descending (ties by doc) for
// sorted access, and by doc ascending for random access by binary
// search. Multi-term top-k queries are answered by the Threshold
// Algorithm of Fagin, Lotem and Naor (PODS'01 — reference [6] of the
// paper) with sorted and random access and early termination on the
// threshold, as the bursty-document search engine of §5 requires. Build
// with With, which rebuilds the listed terms' segments and shares every
// other segment with the index it is called on (nil is the empty index),
// so successive generations of an engine share their clean terms'
// segments by pointer. Then open a Cursor: one resumable TA pass whose
// Next yields hits in final rank order, and whose Where is that ranking
// through a post-filter and a score floor. A ranking is a plain pull
// function, and Page pages any ranking — a cursor's, or a merge of
// several — into an [offset, offset+k) window. TopK is the first k hits of a Cursor;
// the package's tests hold TopKNaive, its exhaustive oracle.
//
// # Pattern store
//
// PatternSet is the immutable store behind stburst.PatternIndex: the
// per-term output of one corpus-wide miner (regional STLocal windows,
// combinatorial STComb patterns, or merged-stream temporal intervals),
// keyed by interned term ID. It is safe for unlimited concurrent readers
// and exposes Fingerprint, a canonical SHA-256 digest over the full
// content used by the determinism suite and the snapshot codec.
//
// Everything that differs between the kinds — the miner, when a pattern
// covers a document, when it meets a region/timespan filter, which fields
// it stores — is one entry of the kind table in kinds.go; every other
// operation on a PatternSet (projection, fingerprint, codec, validation,
// re-keying, re-mining, the engine-build and post-filter loops) is one
// generic loop over the set's entry.
//
// # Bundles
//
// Bundle is the one persisted artifact: up to one member stream per
// pattern kind behind a header carrying the store generation, the shard
// identity and the persisted subscriptions, a manifest of the members'
// kinds and fingerprints, and a stream checksum over the whole file.
// WriteSnapshot and ReadSnapshot are the member codec: a PatternSet with
// its term strings, guarded by two digests — a stream checksum over every
// encoded byte, and the canonical fingerprint proving the decoded
// patterns are bit-identical to the mined set. Snapshot.Remap re-interns
// the patterns into a serving collection's dictionary, completing the
// mine-once/serve-many pipeline (stmine -all -o → stserve). The byte
// layout is specified in DESIGN.md.
package index
