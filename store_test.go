package stburst

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"stburst/internal/core"
	"stburst/internal/index"
	"stburst/internal/search"
)

// fullStore mines every kind into a store over the collection.
func fullStore(t *testing.T, c *Collection) *Store {
	t.Helper()
	s, err := c.MineStore(context.Background(), nil)
	if err != nil {
		t.Fatalf("MineStore: %v", err)
	}
	return s
}

func TestStoreReplace(t *testing.T) {
	c := twoBurstCollection(t)
	ixs := mineKinds(t, c)
	s := newStore(c)
	if got := s.Kinds(); len(got) != 0 {
		t.Fatalf("empty store reports kinds %v", got)
	}
	if err := s.Replace(ixs[KindTemporal]); err != nil {
		t.Fatal(err)
	}
	if got := s.Kinds(); len(got) != 1 || got[0] != KindTemporal {
		t.Fatalf("Kinds after one Replace = %v", got)
	}
	if s.Index(KindTemporal) != ixs[KindTemporal] {
		t.Fatal("Index does not return the installed index")
	}
	if s.Index(KindRegional) != nil || s.Index(KindAny) != nil {
		t.Fatal("absent kinds must read as nil")
	}
	// Replace swaps the whole set: temporal out, regional+combinatorial in.
	if err := s.Replace(ixs[KindRegional], ixs[KindCombinatorial]); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	want := []Kind{KindRegional, KindCombinatorial}
	if got := s.Kinds(); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Kinds after Replace = %v, want %v", got, want)
	}
	if s.Index(KindTemporal) != nil {
		t.Error("Replace kept a kind that was not in the new set")
	}
	// Invalid sets leave the store untouched. An index attached to
	// another collection would answer with foreign document IDs.
	foreign := mustMine(twoBurstCollection(t), KindTemporal, nil)
	for name, bad := range map[string][]*PatternIndex{
		"duplicate kind":     {ixs[KindRegional], ixs[KindRegional]},
		"nil entry":          {ixs[KindRegional], nil},
		"foreign collection": {ixs[KindRegional], foreign},
	} {
		if err := s.Replace(bad...); err == nil {
			t.Errorf("Replace accepted %s", name)
		}
		if got := s.Kinds(); len(got) != 2 {
			t.Fatalf("failed Replace (%s) mutated the store: %v", name, got)
		}
	}
}

// TestStoreQuerySingleKindParity: a concrete Query.Kind routed through
// the store answers exactly like the resident index itself.
func TestStoreQuerySingleKindParity(t *testing.T) {
	c := twoBurstCollection(t)
	s := fullStore(t, c)
	queries := []Query{
		{Text: "earthquake", K: 20},
		{Text: "earthquake rescue", K: 10},
		{Text: "earthquake", K: 50, Region: &andesRegion},
		{Text: "earthquake", K: 50, Time: &japanTime},
		{Text: "earthquake", K: 5, Offset: 3},
	}
	for _, kind := range Kinds() {
		for _, q := range queries {
			q.Kind = kind
			want, err := s.Index(kind).Engine().Run(context.Background(), q)
			if err != nil {
				t.Fatalf("index query %v: %v", kind, err)
			}
			got, err := s.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("store query %v: %v", kind, err)
			}
			if len(got.Hits) != len(want.Hits) || got.More != want.More {
				t.Fatalf("kind %v: store page (%d hits, more=%v) != index page (%d hits, more=%v)",
					kind, len(got.Hits), got.More, len(want.Hits), want.More)
			}
			for i := range got.Hits {
				if got.Hits[i] != want.Hits[i] {
					t.Errorf("kind %v hit %d: store %+v != index %+v", kind, i, got.Hits[i], want.Hits[i])
				}
				if got.Hits[i].Kind != kind {
					t.Errorf("kind %v hit %d attributed to %v", kind, i, got.Hits[i].Kind)
				}
			}
		}
	}
}

// anyBruteForce computes the KindAny answer the slow way: run every
// resident kind's full ranking, concatenate, sort by the documented
// merge order (score desc, doc asc, kind asc), and page.
func anyBruteForce(t *testing.T, s *Store, q Query) ResultPage {
	t.Helper()
	var union []Hit
	for _, kind := range s.Kinds() {
		full := q
		full.Kind = kind
		full.K = MaxK
		full.Offset = 0
		page, err := s.Index(kind).Engine().Run(context.Background(), full)
		if err != nil {
			t.Fatalf("brute force %v: %v", kind, err)
		}
		union = append(union, page.Hits...)
	}
	sort.SliceStable(union, func(i, j int) bool {
		if union[i].Score != union[j].Score {
			return union[i].Score > union[j].Score
		}
		if union[i].Doc.ID != union[j].Doc.ID {
			return union[i].Doc.ID < union[j].Doc.ID
		}
		return union[i].Kind < union[j].Kind
	})
	k := q.K
	if k == 0 {
		k = DefaultK
	}
	if q.Offset >= len(union) {
		return ResultPage{}
	}
	end := q.Offset + k
	more := len(union) > end
	if end > len(union) {
		end = len(union)
	}
	return ResultPage{Hits: union[q.Offset:end], More: more}
}

// TestStoreQueryAnyMergeBruteForce: the KindAny fan-out merge matches
// the per-kind brute-force union for plain, filtered, thresholded and
// paged queries.
func TestStoreQueryAnyMergeBruteForce(t *testing.T) {
	c := twoBurstCollection(t)
	s := fullStore(t, c)
	queries := []Query{
		{Text: "earthquake"},
		{Text: "earthquake", K: 200},
		{Text: "earthquake rescue", K: 50},
		{Text: "earthquake", K: 100, Region: &andesRegion},
		{Text: "earthquake", K: 100, Time: &andesTime},
		{Text: "earthquake", K: 100, Region: &japanRegion, Time: &japanTime},
		{Text: "earthquake", K: 100, MinScore: 2},
		{Text: "earthquake", K: 7, Offset: 5},
		{Text: "earthquake", K: 3, Offset: 250},
		{Text: "weather", K: 30},
		{Text: "nosuchterm", K: 10},
	}
	for _, q := range queries {
		got, err := s.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("store query %+v: %v", q, err)
		}
		want := anyBruteForce(t, s, q)
		if len(got.Hits) != len(want.Hits) || got.More != want.More {
			t.Fatalf("query %+v: merged page (%d hits, more=%v) != union (%d hits, more=%v)",
				q, len(got.Hits), got.More, len(want.Hits), want.More)
		}
		for i := range got.Hits {
			if got.Hits[i] != want.Hits[i] {
				t.Errorf("query %+v hit %d: merged %+v != union %+v", q, i, got.Hits[i], want.Hits[i])
			}
		}
	}
	// Sanity: with all three kinds resident, a large page attributes hits
	// to more than one kind.
	page, err := s.Query(context.Background(), Query{Text: "earthquake", K: 500})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[Kind]bool{}
	for _, h := range page.Hits {
		seen[h.Kind] = true
	}
	if len(seen) < 2 {
		t.Errorf("KindAny fan-out attributed hits to %v, want several kinds", seen)
	}
}

// TestStoreQueryOffsetPastEnd is the public-surface regression test for
// the pathological page: an Offset past the last hit — for a concrete
// kind and for the KindAny fan-out, filtered or not — answers an empty
// page with More=false in at most one retrieval round per consulted
// index, instead of grinding the progressive fetch-doubling to MaxK.
func TestStoreQueryOffsetPastEnd(t *testing.T) {
	c := twoBurstCollection(t)
	s := fullStore(t, c)
	for _, q := range []Query{
		{Text: "earthquake", K: 10, Offset: MaxK, Kind: KindRegional},
		{Text: "earthquake", K: 10, Offset: MaxK},
		{Text: "earthquake", K: 10, Offset: MaxK, Region: &andesRegion},
		{Text: "earthquake rescue", K: 5, Offset: MaxK / 2, Time: &japanTime},
	} {
		before := search.FetchRounds()
		page, err := s.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("query %+v: %v", q, err)
		}
		if len(page.Hits) != 0 || page.More {
			t.Errorf("query %+v: page = %d hits, more=%v; want empty, false", q, len(page.Hits), page.More)
		}
		if rounds := search.FetchRounds() - before; rounds > 3 {
			t.Errorf("query %+v: %d fetch rounds, want at most one per resident index", q, rounds)
		}
	}
}

func TestStoreQueryNotResident(t *testing.T) {
	c := twoBurstCollection(t)
	s := newStore(c)
	if _, err := s.Query(context.Background(), Query{Text: "earthquake"}); !errors.Is(err, ErrKindNotResident) {
		t.Errorf("KindAny query on empty store = %v, want ErrKindNotResident", err)
	}
	s = mustMineStore(t, c, nil, KindRegional)
	if _, err := s.Query(context.Background(), Query{Text: "earthquake", Kind: KindTemporal}); !errors.Is(err, ErrKindNotResident) {
		t.Errorf("non-resident kind query = %v, want ErrKindNotResident", err)
	}
	if _, err := s.Query(context.Background(), Query{Text: "earthquake", Kind: KindRegional}); err != nil {
		t.Errorf("resident kind query failed: %v", err)
	}
}

// TestEngineKindMismatch: a single-kind surface rejects queries for a
// different concrete kind instead of answering with the wrong model.
func TestEngineKindMismatch(t *testing.T) {
	e := mustMine(twoBurstCollection(t), KindRegional, nil).Engine()
	if _, err := e.Run(context.Background(), Query{Text: "earthquake", Kind: KindTemporal}); err == nil {
		t.Error("regional index answered a temporal query")
	}
	for _, kind := range []Kind{KindAny, KindRegional} {
		if _, err := e.Run(context.Background(), Query{Text: "earthquake", Kind: kind}); err != nil {
			t.Errorf("regional index rejected Kind=%v: %v", kind, err)
		}
	}
}

// TestMineStoreParity: the one-pass three-kind miner produces indexes
// bit-identical to one-kind MineStores, for any worker count.
func TestMineStoreParity(t *testing.T) {
	c := twoBurstCollection(t)
	ixs := mineKinds(t, c)
	for _, workers := range []int{1, 4} {
		s, err := c.MineStore(context.Background(), NewMineOptions(WithParallelism(workers)))
		if err != nil {
			t.Fatalf("MineStore(workers=%d): %v", workers, err)
		}
		if got := s.Kinds(); len(got) != 3 {
			t.Fatalf("MineStore resident kinds = %v, want all three", got)
		}
		for _, kind := range Kinds() {
			if got, want := s.Index(kind).Fingerprint(), ixs[kind].Fingerprint(); got != want {
				t.Errorf("workers=%d kind %v: all-kind MineStore fingerprint %.12s != one-kind %.12s",
					workers, kind, got, want)
			}
		}
	}
}

// TestMineStoreCancel: a cancelled context aborts the one-pass miner.
func TestMineStoreCancel(t *testing.T) {
	c := twoBurstCollection(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.MineStore(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("MineStore with cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestStoreHotSwapUnderQueries: queries hammer the store while the whole
// resident set is replaced; every page observed must be internally
// consistent (all hits attributed to resident kinds). Run under -race
// this is the torn-read detector for the atomic install.
func TestStoreHotSwapUnderQueries(t *testing.T) {
	c := twoBurstCollection(t)
	ixs := mineKinds(t, c)
	// A second generation of indexes to swap against (an EWMA baseline,
	// same collection).
	ewma := &RegionalOptions{Baseline: BaselineEWMA}
	reg2 := mineWith(t, c, KindRegional, &index.MineOptions{Local: ewma.coreOptions()}, 0)
	s := fullStore(t, c)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				page, err := s.Query(context.Background(), Query{Text: "earthquake", K: 20})
				if err != nil {
					t.Errorf("query during swaps: %v", err)
					return
				}
				for _, h := range page.Hits {
					if _, ok := h.Kind.patternKind(); !ok {
						t.Errorf("hit attributed to non-concrete kind %v", h.Kind)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var next *PatternIndex
		if i%2 == 0 {
			next = reg2
		} else {
			next = ixs[KindRegional]
		}
		if err := s.Replace(next, ixs[KindCombinatorial], ixs[KindTemporal]); err != nil {
			t.Errorf("replace %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestConcurrentIngestQueryReplace extends the hot-swap hammer with a
// live writer: queries and pattern listings run nonstop while one
// goroutine ingests document batches (append + dirty-term re-mine +
// atomic install) and another replaces the resident set
// administratively, which succeeds until the first batch is appended
// and is refused with ErrCollectionAppended from then on. Under -race this is the torn-read detector for the
// whole write path: the copy-on-write collection append, the shared
// clean-term pattern slices, and the atomic resident-set installs.
func TestConcurrentIngestQueryReplace(t *testing.T) {
	c := twoBurstCollection(t)
	s := fullStore(t, c)
	ixs := mineKinds(t, c)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				page, err := s.Query(context.Background(), Query{Text: "earthquake volcano", K: 20})
				if err != nil {
					// The two-term query needs "volcano", which only exists
					// after the first ingest; an empty page is fine, an
					// error is not.
					t.Errorf("query during ingest: %v", err)
					return
				}
				for _, h := range page.Hits {
					if _, ok := h.Kind.patternKind(); !ok {
						t.Errorf("hit attributed to non-concrete kind %v", h.Kind)
						return
					}
				}
				if _, err := s.Query(context.Background(), Query{Text: "earthquake", K: 10, Region: &andesRegion}); err != nil {
					t.Errorf("filtered query during ingest: %v", err)
					return
				}
			}
		}()
	}
	// The administrative writer: replaces the whole set over and over,
	// racing the ingest writer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		refused := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			err := s.Replace(ixs[KindRegional], ixs[KindCombinatorial], ixs[KindTemporal])
			switch {
			case errors.Is(err, ErrCollectionAppended):
				refused = true
			case err != nil:
				t.Errorf("replace during ingest: %v", err)
				return
			case refused:
				t.Error("a Replace installed after an earlier one was refused for appended documents")
				return
			}
		}
	}()

	lastGen := s.Generation()
	for i := 0; i < 12; i++ {
		res, err := s.Ingest(context.Background(), []IncomingDocument{
			{Stream: i % c.NumStreams(), Time: (7 + i) % c.Timeline(), Text: "earthquake volcano wave"},
			{Stream: (i + 1) % c.NumStreams(), Time: (3 + i) % c.Timeline(), Text: "volcano plume drifting"},
		})
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		if res.Generation <= lastGen {
			t.Fatalf("ingest %d: generation %d did not advance past %d", i, res.Generation, lastGen)
		}
		lastGen = res.Generation
	}
	close(stop)
	wg.Wait()

	if got := c.NumDocs(); got != twoBurstCollection(t).NumDocs()+24 {
		t.Errorf("collection holds %d docs after 12 ingests of 2", got)
	}
}

// TestStoreReplaceRefusedAfterIngest: once Ingest has appended a batch,
// Replace refuses with ErrCollectionAppended and leaves the generation
// and every fingerprint as the ingest left them.
func TestStoreReplaceRefusedAfterIngest(t *testing.T) {
	c := twoBurstCollection(t)
	s := fullStore(t, c)
	stale := mineKinds(t, c)
	if _, err := s.Ingest(context.Background(), liveBatch()); err != nil {
		t.Fatal(err)
	}
	gen := s.Generation()
	fps := make(map[Kind]string)
	for _, k := range Kinds() {
		fps[k] = s.Index(k).Fingerprint()
	}
	err := s.Replace(stale[KindRegional], stale[KindCombinatorial], stale[KindTemporal])
	if !errors.Is(err, ErrCollectionAppended) {
		t.Fatalf("Replace after an ingest = %v, want ErrCollectionAppended", err)
	}
	if s.Generation() != gen {
		t.Errorf("refused Replace moved the generation %d → %d", gen, s.Generation())
	}
	for _, k := range Kinds() {
		if got := s.Index(k).Fingerprint(); got != fps[k] {
			t.Errorf("%v fingerprint changed across a refused Replace", k)
		}
	}
}

// TestStoreSaveLoadRoundTrip: a bundle round-trips every resident index
// bit for bit and the loaded store answers queries identically.
func TestStoreSaveLoadRoundTrip(t *testing.T) {
	c := twoBurstCollection(t)
	s := fullStore(t, c)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadStore(bytes.NewReader(buf.Bytes()), c)
	if err != nil {
		t.Fatalf("LoadStore: %v", err)
	}
	if got := loaded.Kinds(); len(got) != 3 {
		t.Fatalf("loaded store kinds = %v, want all three", got)
	}
	for _, kind := range Kinds() {
		if got, want := loaded.Index(kind).Fingerprint(), s.Index(kind).Fingerprint(); got != want {
			t.Errorf("kind %v: loaded fingerprint %.12s != saved %.12s", kind, got, want)
		}
	}
	q := Query{Text: "earthquake", K: 30}
	want, err := s.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Hits) != len(want.Hits) {
		t.Fatalf("loaded store returned %d hits, original %d", len(got.Hits), len(want.Hits))
	}
	for i := range got.Hits {
		if got.Hits[i] != want.Hits[i] {
			t.Errorf("hit %d: loaded %+v != original %+v", i, got.Hits[i], want.Hits[i])
		}
	}
}

// TestStoreSavePartial: a store holding a subset of kinds saves and
// loads just those kinds; an empty store cannot be saved.
func TestStoreSavePartial(t *testing.T) {
	c := twoBurstCollection(t)
	ixs := mineKinds(t, c)
	s := newStore(c)
	if err := s.Save(&bytes.Buffer{}); err == nil {
		t.Error("Save accepted an empty store")
	}
	if err := s.Replace(ixs[KindCombinatorial], ixs[KindTemporal]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(&buf, c)
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{KindCombinatorial, KindTemporal}
	if got := loaded.Kinds(); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("loaded kinds = %v, want %v", got, want)
	}
}

// TestQueryWithShippedKind: a single-kind query over a term the store
// lacks answers the same page from the owner's all-kind bundle as from
// its one-member bundle of that kind, and both are the owner's own
// page. A member of a kind the query does not rank is still checked.
func TestQueryWithShippedKind(t *testing.T) {
	c := twoBurstCollection(t)
	full := fullStore(t, c)
	id, ok := c.col.Dict().Lookup("earthquake")
	if !ok {
		t.Fatal("the corpus lacks earthquake")
	}
	// owner holds every term, home every term but earthquake, both at
	// one generation.
	owner, home := newStore(c), newStore(c)
	var rest []*PatternIndex
	for _, ix := range full.Resident() {
		keep := slices.DeleteFunc(slices.Clone(ix.set.Terms()), func(t int) bool { return t == id })
		rest = append(rest, &PatternIndex{c: c, set: index.EmptySet(ix.set.Kind()).With(ix.set, keep)})
	}
	if err := owner.Replace(full.Resident()...); err != nil {
		t.Fatal(err)
	}
	if err := home.Replace(rest...); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var all bytes.Buffer
	if err := owner.SaveTerm(&all, "earthquake"); err != nil {
		t.Fatal(err)
	}
	for _, kind := range Kinds() {
		var one bytes.Buffer
		if err := owner.SaveTerm(&one, "earthquake", kind); err != nil {
			t.Fatal(err)
		}
		if one.Len() >= all.Len() {
			t.Errorf("%v: the one-member bundle is %d bytes, the all-kind one %d", kind, one.Len(), all.Len())
		}
		q := Query{Text: "earthquake", Kind: kind, K: MaxK}
		want, err := owner.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Hits) == 0 {
			t.Fatalf("%v: the owner finds no hits; the query does not exercise the join", kind)
		}
		if without, err := home.Query(ctx, q); err != nil || len(without.Hits) != 0 {
			t.Fatalf("%v: the home store answers %d hits (%v) without the bundle", kind, len(without.Hits), err)
		}
		for name, b := range map[string][]byte{"all-kind": all.Bytes(), "one-member": one.Bytes()} {
			got, err := home.QueryWith(ctx, q, b)
			if err != nil {
				t.Fatalf("%v with the %s bundle: %v", kind, name, err)
			}
			if !slices.Equal(got.Hits, want.Hits) || got.More != want.More {
				t.Errorf("%v with the %s bundle: %d hits, the owner's page %d", kind, name, len(got.Hits), len(want.Hits))
			}
		}
	}
	misfit := index.NewCombSet(map[int][]core.CombPattern{id: {{Streams: []int{0, 9}, Start: 4, End: 6, Score: 1}}})
	var b bytes.Buffer
	if err := index.WriteBundleSharded(&b, []*index.PatternSet{misfit}, c.col.Dict().Term, home.Generation(), index.ShardInfo{Shards: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := home.QueryWith(ctx, Query{Text: "earthquake", Kind: KindRegional}, b.Bytes()); err == nil || !strings.Contains(err.Error(), "does not fit") {
		t.Errorf("a regional query shipped a combinatorial member naming stream 9 of 4: %v, want it refused", err)
	}
}

// TestLoadStoreSingleSnapshot: a single-kind artifact — a one-member
// bundle — boots a one-kind store.
func TestLoadStoreSingleSnapshot(t *testing.T) {
	c := twoBurstCollection(t)
	ix := mustMine(c, KindCombinatorial, nil)
	s, err := LoadStore(bytes.NewReader(saveOne(t, c, ix)), c)
	if err != nil {
		t.Fatalf("LoadStore(one member): %v", err)
	}
	if got := s.Kinds(); len(got) != 1 || got[0] != KindCombinatorial {
		t.Fatalf("kinds = %v, want [combinatorial]", got)
	}
	if s.Index(KindCombinatorial).Fingerprint() != ix.Fingerprint() {
		t.Error("loaded member fingerprint differs")
	}
}

// TestLoadStoreForeignCollection: a bundle mined from a different corpus
// is rejected, not silently mis-attached.
func TestLoadStoreForeignCollection(t *testing.T) {
	c := twoBurstCollection(t)
	s := fullStore(t, c)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := NewCollection([]StreamInfo{{Name: "solo", Location: Point{}}}, 4)
	if _, err := other.AddText(0, 0, "entirely different vocabulary"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStore(&buf, other); err == nil {
		t.Error("LoadStore attached a bundle to a foreign collection")
	}
}

// TestLoadStoreGarbage: junk input fails cleanly with a format error.
func TestLoadStoreGarbage(t *testing.T) {
	c := twoBurstCollection(t)
	for _, in := range []string{"", "short", "not a bundle or a snapshot at all"} {
		if _, err := LoadStore(strings.NewReader(in), c); err == nil {
			t.Errorf("LoadStore accepted %q", in)
		}
	}
}

// TestKindJSON: the Kind JSON codec speaks the /v1 wire names.
func TestKindJSON(t *testing.T) {
	for kind, name := range map[Kind]string{
		KindAny: `"any"`, KindRegional: `"regional"`,
		KindCombinatorial: `"combinatorial"`, KindTemporal: `"temporal"`,
	} {
		b, err := json.Marshal(kind)
		if err != nil || string(b) != name {
			t.Errorf("Marshal(%v) = %s, %v; want %s", kind, b, err, name)
		}
		var back Kind
		if err := json.Unmarshal([]byte(name), &back); err != nil || back != kind {
			t.Errorf("Unmarshal(%s) = %v, %v; want %v", name, back, err, kind)
		}
	}
	if _, err := json.Marshal(Kind(99)); err == nil {
		t.Error("Marshal accepted an unknown kind")
	}
	var k Kind
	for _, bad := range []string{`"nope"`, `7`, `{}`} {
		if err := json.Unmarshal([]byte(bad), &k); err == nil {
			t.Errorf("Unmarshal accepted %s", bad)
		}
	}
	// An absent kind field decodes to KindAny.
	var q Query
	if err := json.Unmarshal([]byte(`{"text":"x"}`), &q); err != nil || q.Kind != KindAny {
		t.Errorf("absent kind decoded to %v, %v; want KindAny", q.Kind, err)
	}
	// A query with a kind round-trips.
	out, err := json.Marshal(Query{Text: "x", Kind: KindTemporal})
	if err != nil || !strings.Contains(string(out), `"kind":"temporal"`) {
		t.Errorf("query marshal = %s, %v; want a kind field", out, err)
	}
}
