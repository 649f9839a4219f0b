package stburst

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"stburst/internal/search"
)

// liveBatch is the append batch the ingestion tests share: more arrival
// on an existing bursty term, a brand-new term, and a document for a
// previously quiet stream.
func liveBatch() []IncomingDocument {
	return []IncomingDocument{
		{Stream: 2, Time: 13, Text: "earthquake aftershocks continue rescue"},
		{Stream: 3, Time: 13, Text: "earthquake volcano eruption volcano"},
		{Stream: 0, Time: 14, Text: "volcano ash cloud grounds flights"},
	}
}

// appendBatch appends docs the way Store.Ingest and ReplayWAL do, at the
// stream layer, and returns the first new document's ID and the dirty
// terms, in interned-ID order.
func appendBatch(c *Collection, docs []IncomingDocument) (int, []string, error) {
	first, dirty, err := c.col.Append(c.prepareBatch(docs))
	if err != nil {
		return 0, nil, err
	}
	terms := make([]string, len(dirty))
	for i, id := range dirty {
		terms[i] = c.col.Dict().Term(id)
	}
	return first, terms, nil
}

// applyBatch appends the same documents without mining anything — the
// "from scratch" side of the incremental-vs-full oracle.
func applyBatch(t *testing.T, c *Collection, docs []IncomingDocument) (int, []string) {
	t.Helper()
	first, dirty, err := appendBatch(c, docs)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	return first, dirty
}

func TestAppendBasics(t *testing.T) {
	c := twoBurstCollection(t)
	before := c.NumDocs()
	first, dirtyTerms := applyBatch(t, c, liveBatch())
	if first != before {
		t.Fatalf("first appended ID = %d, want %d", first, before)
	}
	if c.NumDocs() != before+3 {
		t.Fatalf("NumDocs = %d, want %d", c.NumDocs(), before+3)
	}
	// Dirty terms are the batch's distinct normalized tokens ("ash",
	// "volcano", ... — stopwords removed), each reported once.
	dirty := map[string]bool{}
	for _, term := range dirtyTerms {
		if dirty[term] {
			t.Errorf("dirty term %q reported twice", term)
		}
		dirty[term] = true
	}
	for _, want := range []string{"earthquake", "volcano", "rescue", "ash"} {
		if !dirty[want] {
			t.Errorf("dirty terms %v missing %q", dirtyTerms, want)
		}
	}
	if dirty["continue"] == false && dirty["aftershocks"] == false {
		t.Errorf("dirty terms %v miss the batch's vocabulary", dirtyTerms)
	}
	// The appended frequencies are visible through every read path.
	if got := c.TermFrequency("volcano", 3, 13); got != 2 {
		t.Errorf("TermFrequency(volcano, 3, 13) = %v, want 2", got)
	}
	if d := c.Doc(first); d.Stream != 2 || d.Time != 13 {
		t.Errorf("appended doc = %+v, want stream 2 time 13", d)
	}
}

// TestAppendValidationAtomic: Store.Ingest, the one door for documents
// after the load, rejects a batch with any out-of-range document whole,
// and refuses every batch under a cancelled context.
func TestAppendValidationAtomic(t *testing.T) {
	c := twoBurstCollection(t)
	s := newStore(c)
	before := c.NumDocs()
	bad := [][]IncomingDocument{
		{{Stream: 0, Time: 3, Text: "fine"}, {Stream: 99, Time: 3, Text: "bad stream"}},
		{{Stream: 0, Time: 3, Text: "fine"}, {Stream: 0, Time: 99, Text: "bad time"}},
		{{Stream: -1, Time: 3, Text: "bad stream"}},
		{{Stream: 0, Time: -1, Text: "bad time"}},
	}
	for _, docs := range bad {
		if _, err := s.Ingest(context.Background(), docs); err == nil {
			t.Errorf("Ingest accepted %+v", docs)
		}
	}
	if c.NumDocs() != before {
		t.Fatalf("failed ingests published documents: %d docs, want %d", c.NumDocs(), before)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Ingest(ctx, liveBatch()); !errors.Is(err, context.Canceled) {
		t.Errorf("Ingest with cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestAppendDeterministicInterning: replaying the same load + appends
// assigns identical dictionary IDs, so independently rebuilt collections
// mine to identical fingerprints (the snapshot-portability guarantee
// extended past the frozen prefix).
func TestAppendDeterministicInterning(t *testing.T) {
	build := func() *Collection {
		c := twoBurstCollection(t)
		applyBatch(t, c, liveBatch())
		return c
	}
	a, b := build(), build()
	da, db := a.col.Dict(), b.col.Dict()
	if da.Len() != db.Len() {
		t.Fatalf("replayed interning diverged: %d vs %d terms", da.Len(), db.Len())
	}
	for id := 0; id < da.Len(); id++ {
		if da.Term(id) != db.Term(id) {
			t.Fatalf("replayed interning diverged at ID %d: %q vs %q", id, da.Term(id), db.Term(id))
		}
	}
	for _, kind := range Kinds() {
		if mustMine(a, kind, nil).Fingerprint() != mustMine(b, kind, nil).Fingerprint() {
			t.Errorf("kind %v: replayed append mined different fingerprints", kind)
		}
	}
}

// TestIngestIncrementalOracle is the acceptance oracle: after Ingest,
// every resident index's fingerprint is byte-identical to a from-scratch
// MineStore over the appended collection, for all three kinds — and the
// incremental path mined only the dirty terms.
func TestIngestIncrementalOracle(t *testing.T) {
	live := twoBurstCollection(t)
	s, err := live.MineStore(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm engines make the ingest refresh them rather than build anew.
	warm := map[Kind]*Engine{}
	for _, kind := range Kinds() {
		warm[kind] = s.Index(kind).Engine()
	}
	postingsBefore := map[int]int{}
	for _, term := range live.col.Terms() {
		postingsBefore[term] = len(live.col.Postings(term))
	}
	minedBefore := search.TermsMined()
	res, err := s.Ingest(context.Background(), liveBatch())
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	minedDelta := search.TermsMined() - minedBefore
	if res.Docs != 3 || res.DirtyTerms == 0 {
		t.Fatalf("IngestResult = %+v, want 3 docs and dirty terms", res)
	}
	if want := int64(3 * res.DirtyTerms); minedDelta != want {
		t.Errorf("incremental ingest mined %d (term, kind) jobs, want %d (3 kinds x %d dirty terms)",
			minedDelta, want, res.DirtyTerms)
	}
	if res.DirtyTerms >= len(live.Terms()) {
		t.Fatalf("every term dirty (%d of %d): the oracle would not exercise the clean-term carry-over",
			res.DirtyTerms, len(live.Terms()))
	}

	// From scratch: rebuild the same appended corpus and mine everything.
	oracle := twoBurstCollection(t)
	applyBatch(t, oracle, liveBatch())
	full, err := oracle.MineStore(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range Kinds() {
		got, want := s.Index(kind).Fingerprint(), full.Index(kind).Fingerprint()
		if got != want {
			t.Errorf("kind %v: incremental fingerprint %.12s != from-scratch %.12s", kind, got, want)
		}
	}
	assertEnginesFresh(t, s)
	// A clean term — one the batch gave no document — keeps its posting
	// list across the refresh: shared, not rebuilt.
	for _, kind := range Kinds() {
		before, after := warm[kind].eng.Index(), s.Index(kind).Engine().eng.Index()
		shared := 0
		for term, n := range postingsBefore {
			if n != len(live.col.Postings(term)) || len(before.Postings(term)) == 0 {
				continue
			}
			if &after.Postings(term)[0] != &before.Postings(term)[0] {
				t.Errorf("kind %v: clean term %q's postings were rebuilt", kind, live.col.Dict().Term(term))
			}
			shared++
		}
		if shared == 0 {
			t.Errorf("kind %v: no clean term with postings; the carry-over went unchecked", kind)
		}
	}

	// The refreshed indexes serve the appended documents: the new term
	// retrieves its documents through every surface.
	page, err := s.Query(context.Background(), Query{Text: "volcano", K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Hits) == 0 {
		t.Error("ingested term retrieves nothing after the incremental refresh")
	}
}

// TestIngestPartialResidency: a store holding a subset of kinds
// refreshes just those kinds.
func TestIngestPartialResidency(t *testing.T) {
	c := twoBurstCollection(t)
	s := mustMineStore(t, c, nil, KindTemporal)
	if _, err := s.Ingest(context.Background(), liveBatch()); err != nil {
		t.Fatalf("Ingest on partial store: %v", err)
	}
	if got := s.Kinds(); len(got) != 1 || got[0] != KindTemporal {
		t.Fatalf("residency changed across Ingest: %v", got)
	}
	oracle := twoBurstCollection(t)
	applyBatch(t, oracle, liveBatch())
	if s.Index(KindTemporal).Fingerprint() != mustMine(oracle, KindTemporal, nil).Fingerprint() {
		t.Error("partial-residency refresh is not exact")
	}
}

// TestIngestEmptyStore: with nothing resident, Ingest appends and bumps
// the generation — the corpus changed even though no index did.
func TestIngestEmptyStore(t *testing.T) {
	c := twoBurstCollection(t)
	s := newStore(c)
	before := s.Generation()
	res, err := s.Ingest(context.Background(), liveBatch())
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation <= before {
		t.Errorf("generation %d did not advance past %d", res.Generation, before)
	}
	if c.NumDocs() != twoBurstCollection(t).NumDocs()+3 {
		t.Error("empty-store ingest did not append")
	}
}

// TestStoreGeneration: every mutation advances the generation, and
// Save/LoadStore persists it.
func TestStoreGeneration(t *testing.T) {
	c := twoBurstCollection(t)
	s, err := c.MineStore(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	g0 := s.Generation()
	if g0 == 0 {
		t.Error("MineStore left generation 0; each mined kind counts as a mutation")
	}
	if err := s.Replace(mustMine(c, KindRegional, nil), s.Index(KindCombinatorial), s.Index(KindTemporal)); err != nil {
		t.Fatal(err)
	}
	if s.Generation() <= g0 {
		t.Error("Replace did not advance the generation")
	}
	g1 := s.Generation()
	res, err := s.Ingest(context.Background(), liveBatch())
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation <= g1 || s.Generation() != res.Generation {
		t.Errorf("Ingest generation %d (store %d), want past %d", res.Generation, s.Generation(), g1)
	}

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(&buf, c)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Generation() != res.Generation {
		t.Errorf("loaded generation %d, want the saved %d", loaded.Generation(), res.Generation)
	}
}

// TestIngesterBatching: each Add is one batch and one generation,
// Close seals the ingester, and a second Close is harmless.
func TestIngesterBatching(t *testing.T) {
	c := twoBurstCollection(t)
	s, err := c.MineStore(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ing := NewIngester(s)
	batch := liveBatch()

	gen0 := s.Generation()
	res, err := ing.Add(context.Background(), batch[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Docs != 1 || res.Generation != gen0+1 || s.Generation() != res.Generation {
		t.Fatalf("single-doc Add = %+v (store generation %d), want one doc at generation %d", res, s.Generation(), gen0+1)
	}
	res, err = ing.Add(context.Background(), batch[1], batch[2])
	if err != nil {
		t.Fatal(err)
	}
	if res.Docs != 2 || res.Generation != gen0+2 {
		t.Fatalf("two-doc Add = %+v, want one 2-doc batch at generation %d", res, gen0+2)
	}

	ing.Close()
	if _, err := ing.Add(context.Background(), batch[0]); !errors.Is(err, ErrIngesterClosed) {
		t.Errorf("Add after Close = %v, want ErrIngesterClosed", err)
	}
	if s.Generation() != gen0+2 {
		t.Errorf("Add after Close moved the generation to %d", s.Generation())
	}
	ing.Close()
}

// trippingContext reports healthy for its first n Err() checks and
// cancelled afterwards — the deterministic way to end a context after
// Ingest's one up-front check, while the re-mine is still to come.
type trippingContext struct {
	context.Context
	calls atomic.Int32
	after int32
}

func (c *trippingContext) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// assertFromScratch checks every kind's fingerprint against a
// from-scratch MineStore over twoBurstCollection plus docs.
func assertFromScratch(t *testing.T, s *Store, docs []IncomingDocument) {
	t.Helper()
	oracle := twoBurstCollection(t)
	applyBatch(t, oracle, docs)
	full := mustMineStore(t, oracle, nil)
	for _, kind := range Kinds() {
		if got, want := s.Index(kind).Fingerprint(), full.Index(kind).Fingerprint(); got != want {
			t.Errorf("kind %v: fingerprint %.12s != from-scratch %.12s", kind, got, want)
		}
	}
}

// assertEmptyIngestIdle checks that an empty batch through ingest
// re-mines nothing and leaves the generation alone: no refresh is ever
// owed.
func assertEmptyIngestIdle(t *testing.T, s *Store, ingest func() (IngestResult, error)) {
	t.Helper()
	gen, mined := s.Generation(), search.TermsMined()
	res, err := ingest()
	if err != nil {
		t.Fatalf("empty ingest: %v", err)
	}
	if delta := search.TermsMined() - mined; delta != 0 || res.DirtyTerms != 0 {
		t.Errorf("empty ingest re-mined %d (term, kind) pairs over %d dirty terms, want none", delta, res.DirtyTerms)
	}
	if res.Generation != gen || s.Generation() != gen {
		t.Errorf("empty ingest moved the generation %d -> %d", gen, s.Generation())
	}
}

// TestIngestIncompleteRepairs: a context that ends after Ingest's
// up-front check — past the commit point, before the re-mine — no
// longer interrupts it: the batch is installed, the store equals the
// from-scratch oracle at once, and an empty Ingest afterwards has
// nothing to repair.
func TestIngestIncompleteRepairs(t *testing.T) {
	live := twoBurstCollection(t)
	s := mustMineStore(t, live, nil)
	docsBefore, gen := live.NumDocs(), s.Generation()
	tripping := &trippingContext{Context: context.Background(), after: 1}
	res, err := s.Ingest(tripping, liveBatch())
	if err != nil {
		t.Fatalf("tripped ingest = %v, want the batch installed", err)
	}
	if res.DirtyTerms == 0 || res.Generation != gen+1 || live.NumDocs() != docsBefore+3 {
		t.Fatalf("tripped ingest = %+v holding %d docs, want dirty terms, generation %d and %d docs",
			res, live.NumDocs(), gen+1, docsBefore+3)
	}
	assertFromScratch(t, s, liveBatch())
	assertEnginesFresh(t, s)
	assertEmptyIngestIdle(t, s, func() (IngestResult, error) { return s.Ingest(context.Background(), nil) })
}

// assertEnginesFresh checks every resident kind's served engine against
// one built from scratch over the same collection and pattern set: the
// same terms, each with the same postings.
func assertEnginesFresh(t *testing.T, s *Store) {
	t.Helper()
	for _, ix := range s.Resident() {
		got := ix.Engine().eng.Index()
		want := search.BuildFromPatterns(ix.c.col, ix.set).Index()
		if got.Terms() != want.Terms() {
			t.Errorf("kind %v: served engine holds %d terms, from scratch %d", ix.PatternKind(), got.Terms(), want.Terms())
		}
		for _, term := range ix.c.col.Terms() {
			if !slices.Equal(got.Postings(term), want.Postings(term)) {
				t.Errorf("kind %v: term %q postings %v, from scratch %v", ix.PatternKind(),
					ix.c.col.Dict().Term(term), got.Postings(term), want.Postings(term))
			}
		}
	}
}

// TestIngesterDropsAppendedBatchOnIncomplete: an Add whose context
// ends past the commit point installs its batch exactly once and
// reports success, so the caller never re-sends it, and an empty Add
// afterwards has nothing to repair.
func TestIngesterDropsAppendedBatchOnIncomplete(t *testing.T) {
	live := twoBurstCollection(t)
	s := mustMineStore(t, live, nil)
	ing := NewIngester(s)
	defer ing.Close()
	docsBefore := live.NumDocs()
	tripping := &trippingContext{Context: context.Background(), after: 1}
	res, err := ing.Add(tripping, liveBatch()...)
	if err != nil || res.DirtyTerms == 0 {
		t.Fatalf("tripped Add = %+v, %v, want the batch installed", res, err)
	}
	assertFromScratch(t, s, liveBatch())
	assertEmptyIngestIdle(t, s, func() (IngestResult, error) { return ing.Add(context.Background()) })
	if got, want := live.NumDocs(), docsBefore+3; got != want {
		t.Fatalf("collection holds %d docs, want %d (batch applied exactly once)", got, want)
	}
}

// TestIngesterAddCloseRace: concurrent Adds racing one Close never
// panic, never deadlock, and never lose a document — every Add that
// returned without ErrIngesterClosed is in the collection afterwards,
// and every Add after the seal reports ErrIngesterClosed.
func TestIngesterAddCloseRace(t *testing.T) {
	c := twoBurstCollection(t)
	s, err := c.MineStore(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	before := c.NumDocs()
	ing := NewIngester(s)

	const adders = 8
	var accepted atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < adders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 16; j++ {
				_, err := ing.Add(context.Background(), IncomingDocument{Stream: 0, Time: 3, Text: "aftershock tremor"})
				if errors.Is(err, ErrIngesterClosed) {
					return
				}
				if err != nil {
					t.Errorf("racing Add: %v", err)
					return
				}
				accepted.Add(1)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		ing.Close()
	}()
	close(start)
	wg.Wait()
	if got, want := c.NumDocs(), before+int(accepted.Load()); got != want {
		t.Fatalf("collection holds %d docs, want %d: an accepted Add was dropped across Close", got, want)
	}
	if _, err := ing.Add(context.Background(), liveBatch()[0]); !errors.Is(err, ErrIngesterClosed) {
		t.Errorf("Add after racing Close = %v, want ErrIngesterClosed", err)
	}
}

// TestIngesterFlushErrorPropagates: a batch the store rejects before the
// append (invalid stream) fails in Add and applies nothing.
func TestIngesterFlushErrorPropagates(t *testing.T) {
	c := twoBurstCollection(t)
	s, err := c.MineStore(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ing := NewIngester(s)
	defer ing.Close()
	before, gen0 := c.NumDocs(), s.Generation()
	bad := IncomingDocument{Stream: 99, Time: 3, Text: "no such stream"}
	if _, err := ing.Add(context.Background(), liveBatch()[0], bad); err == nil {
		t.Fatal("Add of an invalid batch reported success")
	}
	if c.NumDocs() != before || s.Generation() != gen0 {
		t.Errorf("rejected batch applied: %d docs (want %d), generation %d (want %d)",
			c.NumDocs(), before, s.Generation(), gen0)
	}
}

// TestIngesterPendingAfterFailedFlush: an Add that fails before the
// append (cancelled context) applies nothing, and a verbatim retry
// applies the batch exactly once.
func TestIngesterPendingAfterFailedFlush(t *testing.T) {
	c := twoBurstCollection(t)
	s, err := c.MineStore(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	before := c.NumDocs()
	ing := NewIngester(s)
	defer ing.Close()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ing.Add(cancelled, liveBatch()...); !errors.Is(err, context.Canceled) {
		t.Fatalf("Add(cancelled) = %v, want context.Canceled", err)
	}
	if c.NumDocs() != before {
		t.Fatal("cancelled Add published documents")
	}
	res, err := ing.Add(context.Background(), liveBatch()...)
	if err != nil {
		t.Fatalf("retry Add: %v", err)
	}
	if res.Docs != 3 || c.NumDocs() != before+3 {
		t.Fatalf("retry Add = %+v (docs %d), want the batch applied exactly once", res, c.NumDocs())
	}
}

// TestIngestNoDirtyTermsSkipsRefresh: a batch that tokenizes to nothing
// appends and bumps the generation (the corpus changed) but keeps the
// resident indexes — rebuilding engines for bit-identical content would
// be reload-scale work for nothing. A fully empty no-op call does not
// even bump.
func TestIngestNoDirtyTermsSkipsRefresh(t *testing.T) {
	c := twoBurstCollection(t)
	s, err := c.MineStore(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	before := [3]*PatternIndex{s.Index(KindRegional), s.Index(KindCombinatorial), s.Index(KindTemporal)}
	g0 := s.Generation()
	minedBefore := search.TermsMined()
	res, err := s.Ingest(context.Background(), []IncomingDocument{
		{Stream: 0, Time: 3, Text: "the and of"}, // stopwords only
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DirtyTerms != 0 || res.Docs != 1 {
		t.Fatalf("stopword ingest = %+v, want 1 doc, 0 dirty terms", res)
	}
	if res.Generation <= g0 {
		t.Error("appending a document did not advance the generation")
	}
	if search.TermsMined() != minedBefore {
		t.Error("a zero-dirty ingest re-mined terms")
	}
	for i, kind := range Kinds() {
		if s.Index(kind) != before[i] {
			t.Errorf("kind %v: zero-dirty ingest replaced the resident index", kind)
		}
	}
	// A completely empty call is a pure no-op: same generation.
	g1 := s.Generation()
	res, err = s.Ingest(context.Background(), nil)
	if err != nil || res.Generation != g1 || s.Generation() != g1 {
		t.Errorf("no-op ingest = (%+v, %v), want generation unchanged at %d", res, err, g1)
	}
}
