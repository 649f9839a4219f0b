package stburst

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"stburst/internal/corpusio"
	"stburst/internal/index"
	"stburst/internal/search"
	"stburst/internal/sub"
	"stburst/internal/wal"
)

// ErrKindNotResident is returned (wrapped) by Store.Query when the query
// names a concrete kind the store holds no index for, and by a KindAny
// query against an empty store. The HTTP layer maps it to 404.
var ErrKindNotResident = errors.New("stburst: pattern kind not resident in store")

// ErrMismatchedPatterns is returned (wrapped) by Store.QueryWith when a
// shipped bundle was written at another store generation, or from
// another corpus, than the store's. The HTTP layer maps it to 503.
var ErrMismatchedPatterns = errors.New("stburst: shipped patterns do not match the store's generation or corpus")

// ErrCollectionAppended is returned (wrapped) by Store.Replace once the
// store's collection holds documents appended after its corpus load. The
// HTTP layer maps it to 409.
var ErrCollectionAppended = errors.New("stburst: the collection has grown since its corpus load")

// Store holds up to one query-ready PatternIndex per concrete pattern
// kind over a single shared Collection — the paper's three burstiness
// models (regional, combinatorial, temporal) served side by side from
// one process. Store.Query routes a Query to the index of its Kind, or
// fans a KindAny query out to every resident index and merges the hits.
//
// A store is mined whole (Collection.MineStore) or loaded whole
// (LoadStore). The resident set lives behind one atomic pointer to an
// immutable kind-indexed array, so the whole set can be replaced in a
// single atomic step (Replace) while any number of queries run
// concurrently: a query observes either the complete old set or the
// complete new one, never a torn mix, and never blocks behind a reload.
//
// A store is also the write path of a live deployment: Ingest appends a
// batch of freshly arrived documents to the collection and re-mines only
// the dirty terms, installing the refreshed indexes with the same atomic
// Replace a reload uses. Every mutation — Replace, Ingest — bumps the
// monotonically increasing Generation, the cache-busting token the
// serving layer hands to clients.
type Store struct {
	c       *Collection
	indexes atomic.Pointer[residentSet]
	gen     atomic.Uint64
	// writeMu serializes every writer — Replace, and Ingest end to end
	// (snapshot → append → re-mine → install) — plus Save's
	// (resident set, generation) read pair. Without it a Replace
	// landing inside an in-flight Ingest's window would be silently
	// overwritten by indexes derived from the pre-mutation resident set,
	// and a Save racing an Ingest could stamp one generation onto
	// another generation's indexes. Readers stay lock-free on the atomic
	// pointer.
	writeMu sync.Mutex
	// parallelism is the worker count Ingest and AttachWAL re-mine
	// dirty terms with (SetMineOptions).
	parallelism atomic.Int64
	// wal, when non-nil, is the attached write-ahead log (AttachWAL):
	// Ingest fsyncs every batch to it before applying. Behind an atomic
	// pointer so WALStats never blocks behind an in-flight ingest.
	wal atomic.Pointer[wal.Log]
	// walPrune, when non-empty, is the corpus file save-time pruning
	// absorbs sealed WAL segments into (WithWALPrune). Written once by
	// AttachWAL, before the log is armed; read only by Save.
	walPrune string
	// shard is the store's immutable shard identity, recorded by
	// LoadStore from a sharded bundle (whole-partition otherwise).
	shard ShardInfo
	// subs holds the registered standing queries (see subscribe.go);
	// Ingest matches each batch's dirty terms against them after the
	// refreshed indexes install, and Save persists them in the bundle.
	subs *sub.Registry[Subscription]
	// alertSink, when set, receives each Ingest's matched alerts once
	// writeMu is released (SetAlertSink).
	alertSink atomic.Pointer[AlertSink]
}

// residentSet holds the resident index of each concrete kind, indexed
// by its internal pattern kind (canonical kind order); nil marks a kind
// that is not resident.
type residentSet [index.NumKinds]*PatternIndex

// newStore creates an empty store over the collection, for MineStore and
// LoadStore to fill.
func newStore(c *Collection) *Store {
	s := &Store{c: c, shard: ShardInfo{Shards: 1}, subs: sub.NewRegistry(Subscription.clone)}
	s.indexes.Store(new(residentSet))
	return s
}

// ShardInfo identifies which slice of a partitioned vocabulary a store
// holds. A store mined or loaded whole is the entire partition: shard 0
// of 1 with no scheme. A store loaded from an `stmine -shards` bundle
// holds only the terms that hash to its shard under Scheme;
// CorpusFingerprint is the checksum of the corpus the shard set was
// mined from, shared by every member of the set.
type ShardInfo = index.ShardInfo

// TermShard returns the shard index owning a term under the canonical
// vocabulary partition (the fnv1a64/term scheme stmine -shards writes).
// Exported so out-of-process routers — the stgate coordinator — place
// every term on the same shard the miner did.
func TermShard(term string, shards int) int { return index.TermShard(term, shards) }

// ShardInfo returns the store's shard identity, recorded at LoadStore
// time from the bundle's shard block (whole-partition for any other
// provenance). It is immutable for the life of the store.
func (s *Store) ShardInfo() ShardInfo { return s.shard }

// Generation returns the store's current generation: a monotonically
// increasing counter bumped by every mutation (Replace, Ingest),
// persisted in saved bundles and restored by LoadStore. Clients use it
// to bust caches — two responses observed under the same generation were
// served from the same resident set over the same corpus.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// SetMineOptions sets the worker count Ingest and AttachWAL re-mine
// dirty terms with; a nil opts restores one worker per CPU.
// Collection.MineStore records its own options, so only loaded stores
// (LoadStore) need this.
func (s *Store) SetMineOptions(opts *MineOptions) {
	var n int
	if opts != nil {
		n = opts.Parallelism
	}
	s.parallelism.Store(int64(n))
}

// workers returns the re-mine worker count SetMineOptions recorded.
func (s *Store) workers() int { return int(s.parallelism.Load()) }

// Collection returns the collection the store's indexes are mined from.
func (s *Store) Collection() *Collection { return s.c }

// Replace atomically replaces the whole resident set with the given
// indexes — the reload primitive: a concurrent query sees either the
// complete old set or the complete new set, never one kind from each.
// Kinds absent from ixs become non-resident. Two indexes of the same
// kind, a foreign-collection index, or a nil entry is an error, and on
// any error the store is left untouched.
//
// Replace is for a collection that holds only its corpus load: once any
// document has been appended — by Ingest, or by a write-ahead log
// replayed at boot — it refuses with ErrCollectionAppended, because
// indexes from outside the store (a reloaded bundle) cover only the
// documents they were mined from, and installing them would leave the
// appended documents' terms stale for good: a later save would stamp
// the current generation on them. The check runs under the write lock
// Ingest holds end to end, so a Replace either installs before an
// Ingest appends or refuses after it.
func (s *Store) Replace(ixs ...*PatternIndex) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if a := s.c.col.Appended(); a > 0 {
		n := s.c.NumDocs()
		return fmt.Errorf("%w: it holds %d documents but held %d at its corpus load, and the replacing indexes do not cover the appended ones",
			ErrCollectionAppended, n, n-a)
	}
	return s.replaceLocked(ixs...)
}

// replaceLocked is Replace's body; callers hold writeMu.
func (s *Store) replaceLocked(ixs ...*PatternIndex) error {
	var next residentSet
	for _, ix := range ixs {
		if ix == nil {
			return errors.New("stburst: Replace: nil index (omit the kind instead)")
		}
		// An index mined from (or loaded against) a different collection
		// would answer queries with foreign document IDs.
		if ix.c != s.c {
			return fmt.Errorf("stburst: %v index is attached to a different collection than the store", ix.PatternKind())
		}
		k := ix.set.Kind()
		if next[k] != nil {
			return fmt.Errorf("stburst: Replace: two %v indexes", ix.PatternKind())
		}
		next[k] = ix
	}
	s.indexes.Store(&next)
	s.gen.Add(1)
	return nil
}

// Index returns the resident index of a concrete kind, or nil when the
// kind is not resident (or kind is KindAny).
func (s *Store) Index(kind Kind) *PatternIndex {
	pk, ok := kind.patternKind()
	if !ok {
		return nil
	}
	return s.indexes.Load()[pk]
}

// Kinds returns the resident kinds in canonical (regional,
// combinatorial, temporal) order.
func (s *Store) Kinds() []Kind {
	var kinds []Kind
	for _, ix := range s.Resident() {
		kinds = append(kinds, ix.PatternKind())
	}
	return kinds
}

// Resident returns the resident indexes in canonical kind order, all
// taken from one atomic snapshot of the resident set — unlike a
// Kinds()/Index() loop, the result can never interleave two
// generations across a concurrent Replace or Ingest.
func (s *Store) Resident() []*PatternIndex {
	var out []*PatternIndex
	for _, ix := range s.indexes.Load() {
		if ix != nil {
			out = append(out, ix)
		}
	}
	return out
}

// Query executes a structured query against the store. A concrete
// Query.Kind routes to that kind's resident index (ErrKindNotResident,
// wrapped, when the store holds none). KindAny — the zero Kind, so also
// an absent "kind" in the JSON shape — fans out to every resident index
// over one consistent atomic snapshot of the resident set and merges
// the per-kind rankings into a single list ordered by descending score
// (ties by document ID, then kind). Each hit carries the Kind that
// scored it, and a document retrieved by several kinds appears once per
// kind: the fan-out deliberately surfaces how the models rank the same
// document differently rather than collapsing them.
//
// MinScore, Region and Time apply within each kind exactly as in
// Engine.Run; Offset/K page the merged list. The page's More flag
// reports whether hits exist beyond it in the merged ranking. Query is
// QueryWith without shipped patterns.
func (s *Store) Query(ctx context.Context, q Query) (ResultPage, error) {
	return s.QueryWith(ctx, q)
}

// QueryWith is Query over the resident set joined, for this query only,
// by shipped patterns: each bundle, as SaveTerm writes it on the member
// that owns a term, brings that term's patterns of the query's kind, or
// of every kind. One member of a sharded cluster thereby answers any
// query exactly as an unsharded store would: every member holds the full
// corpus, and a term's per-document scores depend only on the corpus and
// the term's own patterns (Eq. 10/11).
//
// A bundle is decoded and checked as LoadStore checks one, every member
// of it; a bundle that does not decode, or whose patterns do not fit the
// collection, is an error. One written at another generation, or from
// another corpus, than the store's is ErrMismatchedPatterns, wrapped:
// answering from it would mix two states of the cluster. Only the
// query's own terms, of the kinds it ranks, are taken from a bundle: a
// single-kind query shipped every kind builds that kind alone. The
// resident set is never modified: the shipped terms' posting lists are
// built into request-local engines that share every resident term's
// list, as an ingest's refresh does.
func (s *Store) QueryWith(ctx context.Context, q Query, bundles ...[]byte) (ResultPage, error) {
	if err := q.Validate(); err != nil {
		return ResultPage{}, err
	}
	resident := s.indexes.Load() // one snapshot for the whole fan-out
	if len(bundles) > 0 {
		var err error
		if resident, err = s.shipped(q, bundles); err != nil {
			return ResultPage{}, err
		}
	}
	sub := q
	if q.Kind == KindAny {
		sub.Offset = 0 // each kind's ranking is read from its head; queryKinds pages the merge
	}
	var rankings []func() (Hit, bool)
	for _, ix := range resident {
		if ix != nil && (q.Kind == KindAny || ix.PatternKind() == q.Kind) {
			rankings = append(rankings, ix.Engine().rank(ctx, sub))
		}
	}
	if len(rankings) == 0 && q.Kind != KindAny {
		return ResultPage{}, fmt.Errorf("%w: %v", ErrKindNotResident, q.Kind)
	}
	return queryKinds(ctx, q, rankings)
}

// shipped returns the resident set joined by the query terms' patterns
// the bundles hold, for the kinds q ranks (see QueryWith).
func (s *Store) shipped(q Query, bundles [][]byte) (*residentSet, error) {
	resident, gen := s.residentAt()
	var want []int // the query's terms the collection knows
	for _, tok := range q.Tokens() {
		if id, ok := s.c.col.Dict().Lookup(tok); ok {
			want = append(want, id)
		}
	}
	var add [index.NumKinds]*index.PatternSet
	for i, raw := range bundles {
		b, err := index.ReadStore(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("stburst: shipped bundle %d: %w", i, err)
		}
		if b.Generation != gen {
			return nil, fmt.Errorf("%w: bundle %d was written at generation %d, the store is at %d",
				ErrMismatchedPatterns, i, b.Generation, gen)
		}
		if fp := s.shard.CorpusFingerprint; b.Shard.CorpusFingerprint != fp {
			return nil, fmt.Errorf("%w: bundle %d was mined from corpus %q, the store from %q",
				ErrMismatchedPatterns, i, b.Shard.CorpusFingerprint, fp)
		}
		for _, snap := range b.Snaps {
			ix, err := attachSnapshot(snap, s.c)
			if err != nil {
				return nil, fmt.Errorf("stburst: shipped bundle %d %v member: %w", i, kindOf(snap.Set.Kind()), err)
			}
			k := ix.set.Kind()
			if q.Kind != KindAny && kindOf(k) != q.Kind {
				continue // checked above, never ranked
			}
			if add[k] == nil {
				add[k] = index.EmptySet(k)
			}
			var held []int
			for _, id := range want {
				if _, ok := slices.BinarySearch(ix.set.Terms(), id); ok {
					held = append(held, id)
				}
			}
			add[k] = add[k].With(ix.set, held)
		}
	}
	next := *resident
	for k, set := range add {
		if base := next[k]; base != nil && set != nil && set.NumTerms() > 0 {
			base.Engine() // built once and kept, so the refresh below shares it
			next[k] = base.successor(base.set.With(set, set.Terms()), set.Terms())
		}
	}
	return &next, nil
}

// residentAt returns the resident set together with the generation it
// serves at, read as one pair under writeMu: every writer installs and
// counts under it.
func (s *Store) residentAt() (*residentSet, uint64) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return s.indexes.Load(), s.Generation()
}

// SaveTerm writes one term's patterns as a bundle stamped with the
// store's generation and shard identity: what a cluster member ships to
// the member answering a query over the term (see QueryWith). term is a
// dictionary term, as Query.Tokens returns it. kinds selects the members,
// written in canonical kind order: none, or KindAny, writes every
// resident kind, the bundle a query of any kind can use; a concrete kind
// writes that kind's member, all a query of that kind ranks. A concrete
// kind the store does not hold writes an empty member of that kind, so a
// query of it answered from the bundle is ErrKindNotResident, as on an
// unsharded store. A kind holding no patterns of the term, and every
// kind for a term the collection has never seen, writes an empty member.
// An empty store cannot be saved.
func (s *Store) SaveTerm(w io.Writer, term string, kinds ...Kind) error {
	resident, gen := s.residentAt()
	if *resident == (residentSet{}) {
		return errors.New("stburst: cannot save an empty store")
	}
	all := len(kinds) == 0 || slices.Contains(kinds, KindAny)
	id, known := s.c.col.Dict().Lookup(term)
	b := &index.Bundle{Generation: gen, Shard: s.shard}
	for pk, ix := range resident {
		if !(all && ix != nil) && !slices.Contains(kinds, kindOf(index.PatternKind(pk))) {
			continue
		}
		one := index.EmptySet(index.PatternKind(pk))
		if ix != nil && known {
			one = one.With(ix.set, []int{id})
		}
		b.Sets = append(b.Sets, one)
	}
	if len(b.Sets) == 0 {
		return fmt.Errorf("stburst: SaveTerm: no pattern kind among %v", kinds)
	}
	return b.Write(w, s.c.col.Dict().Term)
}

// queryKinds answers a validated query from per-kind rankings — each a
// pull function yielding one kind's hits best first: the rankings are
// merged lazily, by descending score, ties by ascending document ID,
// then ascending kind, and the merge is paged once by Offset/K, More
// reporting whether hits exist beyond the page. No rankings at all is
// ErrKindNotResident.
func queryKinds(ctx context.Context, q Query, rankings []func() (Hit, bool)) (ResultPage, error) {
	if len(rankings) == 0 {
		return ResultPage{}, fmt.Errorf("%w: store holds no indexes", ErrKindNotResident)
	}
	type head struct {
		hit  Hit
		live bool
	}
	heads := make([]head, len(rankings))
	for i, next := range rankings {
		heads[i].hit, heads[i].live = next()
	}
	// There are at most three kinds, so a linear pick beats a heap.
	merged := func() (Hit, bool) {
		best := -1
		for i, h := range heads {
			if h.live && (best < 0 || hitBefore(h.hit, heads[best].hit)) {
				best = i
			}
		}
		if best < 0 {
			return Hit{}, false
		}
		h := heads[best].hit
		heads[best].hit, heads[best].live = rankings[best]()
		return h, true
	}
	hits, more, err := index.Page(ctx, merged, q.Offset, q.k())
	if err != nil {
		return ResultPage{}, err
	}
	return ResultPage{Hits: hits, More: more}, nil
}

// hitBefore is queryKinds' merge order: descending score, then ascending
// document ID, then ascending kind.
func hitBefore(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Doc.ID != b.Doc.ID {
		return a.Doc.ID < b.Doc.ID
	}
	return a.Kind < b.Kind
}

// IngestResult reports one applied ingest batch.
type IngestResult struct {
	// Generation is the store generation after the batch was installed —
	// the cache-busting token: any response observed under an older
	// generation predates this batch.
	Generation uint64
	// Docs is the number of documents appended.
	Docs int
	// DirtyTerms is the number of distinct terms whose pattern streams
	// the batch changed — exactly the terms that were re-mined.
	DirtyTerms int
	// TotalDocs is the collection's document count immediately after
	// this batch applied, read under the write lock — so with this
	// batch as the last appended, the count is exact, not a racy
	// after-the-fact read. Streaming connectors checkpoint it next to
	// their byte offset to make crash-resume dedupe precise.
	TotalDocs int
}

// Ingest is the live write path: it appends a batch of freshly arrived
// documents to the collection and incrementally refreshes every resident
// index — only the dirty terms (those whose frequency surfaces the batch
// changed, including brand-new terms) are re-mined, per resident kind,
// on one shared worker pool. Each refreshed index's search engine is
// derived from the resident one's by rebuilding only the dirty terms'
// posting lists (search.Engine.Refresh; clean terms' lists are shared
// across generations), and the warmed indexes are then installed with
// the same atomic install a reload uses, so concurrent queries never
// block and never observe a torn resident set. The refreshed indexes and
// engines are bit-identical to a from-scratch MineStore over the
// appended collection (the per-term miners and posting lists are
// independent, and the oracle tests assert equality for every kind).
//
// Ingest calls serialize, and Replace serializes against an in-flight
// Ingest (see Replace).
//
// With a write-ahead log attached (AttachWAL), Ingest logs before it
// applies: the batch is validated, framed and fsync'd to the WAL, and
// only then appended — so a crash anywhere after the log write replays
// the batch on boot.
//
// Failure semantics: Ingest either refuses the batch or installs it.
// The context is checked once, before anything applies; an error there
// — cancelled context, invalid batch, or a failed WAL write (the torn
// frame is rolled back off the log) — leaves the store, collection and
// log untouched, and the batch may be retried verbatim. Once the batch
// is logged and appended, the re-mine and install run to completion
// whatever the context does afterwards, and Ingest returns nil: the
// store is then exactly a from-scratch MineStore of its collection. On
// a store with no resident indexes, Ingest just appends and bumps the
// generation.
//
// After the refresh, the dirty terms' freshly installed patterns are
// matched against the registered standing queries (Subscribe) and any
// alerts are handed to the alert sink (SetAlertSink) once the write
// lock is released.
func (s *Store) Ingest(ctx context.Context, docs []IncomingDocument) (IngestResult, error) {
	var alerts []Alert
	defer func() { s.emitAlerts(alerts) }() // registered first: runs after writeMu unlocks
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if err := ctx.Err(); err != nil {
		return IngestResult{}, err
	}
	// The resident set is read under writeMu: these indexes describe the
	// pre-append corpus, their clean terms carry over unchanged, and no
	// Replace can land between here and the install below.
	resident := s.indexes.Load()
	batch := s.c.prepareBatch(docs)
	// Validate before logging: a frame that reaches the WAL must never
	// fail to apply, or replay could not reproduce this store.
	if err := s.c.col.CheckBatch(batch); err != nil {
		return IngestResult{}, err
	}
	if l := s.wal.Load(); l != nil && len(batch) > 0 {
		if _, err := l.Append(s.Generation(), uint64(s.c.NumDocs()), batch); err != nil {
			return IngestResult{}, err
		}
	}
	_, dirty, err := s.c.col.Append(batch)
	if err != nil {
		// Unreachable: Append re-runs the CheckBatch that just passed.
		// Surface it as pre-append (nothing applied) rather than strand
		// the logged frame silently — replay would heal it after a restart.
		return IngestResult{}, err
	}
	// The commit point: the batch is logged and appended, so the rest
	// runs to completion however the caller's context ends.
	res := IngestResult{Docs: len(docs), DirtyTerms: len(dirty), TotalDocs: s.c.NumDocs()}
	switch {
	case len(dirty) > 0 && s.refreshLocked(ctx, resident, dirty):
		alerts = s.matchDirtyLocked(dirty)
		res.Generation = s.Generation()
	case len(docs) > 0:
		// Nothing re-mined: every document tokenized to nothing (the
		// resident indexes are already exact, and rebuilding and warming
		// engines for bit-identical content is reload-scale work for
		// nothing), or no index is resident. The append alone is the
		// mutation.
		res.Generation = s.gen.Add(1)
	default:
		res.Generation = s.Generation() // a pure no-op call
	}
	return res, nil
}

// refreshLocked incrementally re-mines the dirty terms against the
// given resident snapshot and atomically installs the refreshed indexes
// (bumping the generation); callers hold writeMu. The refresh runs past
// a commit point, so it ignores ctx's cancellation and always completes.
// It reports false — with nothing installed — when no index is
// resident, in which case the caller owns whatever generation bump the
// mutation deserves. The shared back half of Ingest and AttachWAL's
// boot-time replay: both must refresh identically for a replayed store
// to be bit-identical to the pre-crash one.
func (s *Store) refreshLocked(ctx context.Context, resident *residentSet, dirty []int) bool {
	var prev []*index.PatternSet
	var prevIx []*PatternIndex
	for _, ix := range resident {
		if ix != nil {
			prev = append(prev, ix.set)
			prevIx = append(prevIx, ix)
		}
	}
	if len(prev) == 0 {
		return false
	}
	sets, err := search.MineSets(context.WithoutCancel(ctx), s.c.col, dirty, prev, &index.MineOptions{}, s.workers())
	if err != nil {
		// MineSets fails only on a cancelled context, and this one
		// cannot be cancelled.
		panic(fmt.Sprintf("stburst: re-mining past the commit point: %v", err))
	}
	fresh := make([]*PatternIndex, len(sets))
	for i, set := range sets {
		fresh[i] = prevIx[i].successor(set, dirty)
	}
	if err := s.replaceLocked(fresh...); err != nil {
		// Each successor keeps its predecessor's kind and collection, so
		// the set replaceLocked checks is the one it already holds.
		panic(fmt.Sprintf("stburst: installing a refreshed resident set: %v", err))
	}
	return true
}

// Save serializes every resident index into one bundle: a header
// recording the store's current Generation, its shard identity and any
// registered standing queries, a manifest listing each member's kind,
// byte length and canonical fingerprint, the members themselves and a
// stream checksum over the whole file (see DESIGN.md for the layout). A
// store holding one kind saves as a one-member bundle. LoadStore
// verifies all of it on the way back in and restores the generation and
// the subscriptions. An empty store cannot be saved. Save serializes against writers
// (Replace/Ingest), so the recorded generation always matches the
// serialized indexes — never one mutation's number on another's data.
//
// With a write-ahead log attached, a successful save rotates the log:
// the active segment seals and a fresh one opens, so segment files
// stay bounded under sustained ingestion. By default the sealed
// segments are NOT deleted — a bundle persists patterns, not
// documents, so the logged batches remain the only durable copy of the
// appended documents. A log opened WithWALPrune goes further: the
// sealed batches are absorbed into the corpus file itself (atomically)
// and only then are the sealed segments deleted (see DESIGN.md).
// Absorption stops at the last batch the saved bundle covers: a batch
// ingested while the bundle was being serialized stays logged until a
// later save covers it.
func (s *Store) Save(w io.Writer) error {
	return s.save(func(b *index.Bundle) error { return b.Write(w, s.c.col.Dict().Term) })
}

// save is the shared body of Save and SaveFile: snapshot the resident
// sets, generation, subscriptions and WAL boundary under writeMu, hand
// the bundle to write outside it (ingestion continues underneath), and
// rotate the log once the bundle is out.
func (s *Store) save(write func(*index.Bundle) error) error {
	b := &index.Bundle{Shard: s.shard}
	s.writeMu.Lock()
	for _, ix := range s.indexes.Load() {
		if ix != nil {
			b.Sets = append(b.Sets, ix.set)
		}
	}
	b.Generation = s.Generation()
	// The absorption boundary is the log's last frame: every frame up to
	// it was installed before this snapshot, so the bundle covers it;
	// frames appended while the bundle is written are not covered and
	// must survive rotation un-absorbed.
	l := s.wal.Load()
	var walBoundary uint64
	if l != nil {
		walBoundary = l.Stats().LastSeq
	}
	var err error
	b.Subs, err = s.subscriptionBlobs()
	s.writeMu.Unlock()
	if err != nil {
		return err
	}
	if len(b.Sets) == 0 {
		return errors.New("stburst: cannot save an empty store")
	}
	if err := write(b); err != nil {
		return err
	}
	return s.rotateWAL(l, walBoundary)
}

// rotateWAL seals the attached log's active segment after a successful
// save; a rotation failure surfaces (the bundle itself is intact). When
// the log was opened WithWALPrune, the sealed segments are then
// absorbed into the corpus file and deleted (absorbWAL) up to the
// boundary the save's snapshot captured, so the log stays bounded
// instead of growing forever. l and boundary are read under the same
// writeMu hold as the index snapshot; a log attached after the snapshot
// is left alone (its every frame postdates the bundle).
func (s *Store) rotateWAL(l *wal.Log, boundary uint64) error {
	if l == nil {
		return nil
	}
	if err := l.Rotate(); err != nil {
		return fmt.Errorf("stburst: rotating wal after save: %w", err)
	}
	if s.walPrune == "" {
		return nil
	}
	return s.absorbWAL(l, boundary)
}

// absorbWAL makes the sealed segments' documents durable in the corpus
// file itself — the step that licenses deleting them from the log. The
// corpus is rewritten atomically (temp copy + rename), so a crash
// leaves either the old file with the log intact, or the new file with
// the log intact (ReplayWAL then skips the doubly-held batches); only
// after the rename do the sealed segments go. Batches a previous
// absorb already folded in (its prune failed) are skipped, and a batch
// that does not abut the file's document count aborts the whole
// absorption — the file is not the corpus this collection was loaded
// from, and appending to it would corrupt the next boot.
//
// Only frames with sequence number <= boundary (the last frame logged
// before the save's index snapshot) are absorbed and pruned: a batch
// ingested while the bundle was being written may already sit in a
// sealed segment, but the bundle does not cover it — absorbing it
// would let recovery skip the batch (its documents already in the
// corpus) without ever re-mining its dirty terms, silently regressing
// the indexes. It stays logged until a later save's bundle covers it.
func (s *Store) absorbWAL(l *wal.Log, boundary uint64) error {
	batches, last, err := l.SealedBatches()
	if err != nil {
		return fmt.Errorf("stburst: pruning wal after save: %w", err)
	}
	// Frames are in ascending sequence order; trim everything past the
	// boundary off the tail.
	for len(batches) > 0 && batches[len(batches)-1].Seq > boundary {
		batches = batches[:len(batches)-1]
	}
	if last > boundary {
		last = boundary
	}
	if len(batches) == 0 {
		return nil
	}
	var abutErr error
	_, err = corpusio.AppendDocs(s.walPrune, func(existing int) []corpusio.DocLine {
		var lines []corpusio.DocLine
		for _, b := range batches {
			if b.BaseDocs+uint64(len(b.Docs)) <= uint64(existing) {
				continue // an earlier save absorbed it; only its prune failed
			}
			if b.BaseDocs != uint64(existing)+uint64(len(lines)) {
				abutErr = fmt.Errorf(
					"stburst: wal batch %d was logged at document count %d but the corpus file holds %d — refusing to absorb into a file that is not this store's corpus",
					b.Seq, b.BaseDocs, uint64(existing)+uint64(len(lines)))
				return nil
			}
			for _, d := range b.Docs {
				lines = append(lines, corpusio.DocLine{
					Stream: s.c.col.Stream(d.Stream).Name,
					Time:   d.Time,
					Counts: d.Counts,
				})
			}
		}
		return lines
	})
	if err != nil {
		return fmt.Errorf("stburst: absorbing wal into corpus: %w", err)
	}
	if abutErr != nil {
		return abutErr
	}
	if err := l.Prune(last); err != nil {
		return fmt.Errorf("stburst: pruning wal after save: %w", err)
	}
	return nil
}

// SaveFile saves the store as a bundle file, atomically: the bundle is
// written to a temp file in the destination directory and renamed over
// the target, so an interrupted save never leaves a truncated file.
// Like Save, a successful SaveFile rotates the attached write-ahead
// log.
func (s *Store) SaveFile(path string) error {
	return s.save(func(b *index.Bundle) error { return b.WriteFile(path, s.c.col.Dict().Term) })
}

// LoadStore reads a bundle written by Store.Save (or stmine -o) from r
// and attaches it to a collection holding the same corpus; every member
// index becomes resident. Every member is integrity-checked: stream
// checksums, the canonical per-kind fingerprints (which must also match
// the bundle manifest), vocabulary membership — every stored term is
// re-interned through the collection's dictionary, and one the
// collection has never seen means the bundle was mined from a different
// corpus — and structural fit against the collection. Any failure is an
// error; no partially loaded store is returned.
func LoadStore(r io.Reader, c *Collection) (*Store, error) {
	b, err := index.ReadStore(r)
	if err != nil {
		return nil, fmt.Errorf("stburst: loading store: %w", err)
	}
	ixs := make([]*PatternIndex, len(b.Snaps))
	for i, snap := range b.Snaps {
		ix, err := attachSnapshot(snap, c)
		if err != nil {
			return nil, fmt.Errorf("stburst: loading store: %v member: %w", kindOf(snap.Set.Kind()), err)
		}
		ixs[i] = ix
	}
	s := newStore(c)
	s.shard = b.Shard
	// The members install directly, as MineStore's do: the collection may
	// already hold replayed write-ahead-log batches, which AttachWAL
	// re-mines next. No other goroutine sees the store yet.
	if err := s.replaceLocked(ixs...); err != nil {
		return nil, fmt.Errorf("stburst: loading store: %w", err)
	}
	// Resume the saved store's generation sequence; the install above
	// only counts as a mutation within this process.
	s.gen.Store(b.Generation)
	// Re-register the persisted standing queries under their saved IDs.
	if err := s.restoreSubscriptions(b.Subs); err != nil {
		return nil, fmt.Errorf("stburst: loading store: %w", err)
	}
	return s, nil
}
