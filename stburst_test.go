package stburst

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"stburst/internal/index"
	"stburst/internal/search"
)

// mustMine mines one kind into a store on a background context and
// returns its index; mining an in-memory test corpus cannot fail.
func mustMine(c *Collection, kind Kind, opts *MineOptions) *PatternIndex {
	s, err := c.MineStore(context.Background(), opts, kind)
	if err != nil {
		panic(err)
	}
	return s.Index(kind)
}

// mineWith mines one kind over the whole vocabulary with miner options
// a store never takes — the per-term API's options, mined corpus-wide.
func mineWith(t *testing.T, c *Collection, kind Kind, o *index.MineOptions, workers int) *PatternIndex {
	t.Helper()
	pk, _ := kind.patternKind()
	sets, err := search.MineSets(context.Background(), c.col, c.col.Terms(), []*index.PatternSet{index.EmptySet(pk)}, o, workers)
	if err != nil {
		t.Fatal(err)
	}
	return &PatternIndex{c: c, set: sets[0]}
}

// queryHits answers q through Store.Query, failing the test on an error.
func queryHits(t testing.TB, s *Store, q Query) []Hit {
	t.Helper()
	page, err := s.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return page.Hits
}

// demoCollection: two nearby cities and one far city over 10 weeks, with
// a localized "earthquake" burst in the nearby pair at weeks 4-6.
func demoCollection(t *testing.T) *Collection {
	t.Helper()
	streams := []StreamInfo{
		{Name: "lima", Location: Point{X: 0, Y: 0}},
		{Name: "quito", Location: Point{X: 2, Y: 1}},
		{Name: "tokyo", Location: Point{X: 90, Y: 80}},
	}
	c := NewCollection(streams, 10)
	add := func(s, w int, text string) {
		t.Helper()
		if _, err := c.AddText(s, w, text); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 10; w++ {
		add(0, w, "local politics and weather report")
		add(1, w, "markets update and weather report")
		add(2, w, "technology news and weather report")
	}
	for w := 4; w <= 6; w++ {
		for i := 0; i < 4; i++ {
			add(0, w, "earthquake damage rescue earthquake")
			add(1, w, "earthquake tremors felt across the border")
		}
	}
	return c
}

func TestCollectionBasics(t *testing.T) {
	c := demoCollection(t)
	if c.NumStreams() != 3 || c.Timeline() != 10 {
		t.Fatalf("dims %d/%d", c.NumStreams(), c.Timeline())
	}
	if c.NumDocs() != 30+24 {
		t.Fatalf("NumDocs = %d", c.NumDocs())
	}
	if c.Stream(2).Name != "tokyo" {
		t.Fatal("Stream name")
	}
	if got := c.TermFrequency("earthquake", 0, 4); got != 8 {
		t.Fatalf("TermFrequency = %v, want 8 (4 docs x 2)", got)
	}
	if got := c.TermFrequency("absent", 0, 4); got != 0 {
		t.Fatalf("unknown term frequency = %v", got)
	}
	d := c.Doc(0)
	if d.Stream != 0 || d.Time != 0 {
		t.Fatalf("Doc(0) = %+v", d)
	}
	if len(c.Terms()) == 0 {
		t.Fatal("no terms")
	}
}

// TestTermsFirstSeenOrder: Terms lists the vocabulary in the order its
// terms were first seen (ascending interned ID), so two loads of the
// same corpus bytes list it identically.
func TestTermsFirstSeenOrder(t *testing.T) {
	lines := []string{`{"kind":"topix","streams":["Peru","Japan"],"timeline":4}`}
	var want []string
	for i := range 64 {
		term := fmt.Sprintf("w%02d", 63-i) // first seen in descending string order
		want = append(want, term)
		lines = append(lines, fmt.Sprintf(`{"stream":"Peru","time":%d,"counts":{%q:1}}`, i%4, term))
	}
	for load := range 2 {
		c := loadLines(t, lines)
		got := c.Terms()
		if !slices.Equal(got, want) {
			t.Fatalf("load %d: Terms() = %v, want first-seen order %v", load, got, want)
		}
		for i, term := range got {
			if id, ok := c.col.Dict().Lookup(term); !ok || id != i {
				t.Fatalf("load %d: term %q has ID %d, want %d", load, term, id, i)
			}
		}
	}
}

func TestRegionalPatternsFacade(t *testing.T) {
	c := demoCollection(t)
	ws := c.RegionalPatterns("earthquake", nil)
	if len(ws) == 0 {
		t.Fatal("no regional patterns")
	}
	top, ok := Best(ws)
	if !ok {
		t.Fatal("no best window")
	}
	if !top.ContainsStream(0) || !top.ContainsStream(1) {
		t.Fatalf("top pattern should contain lima+quito: %+v", top)
	}
	if top.ContainsStream(2) {
		t.Fatalf("top pattern should exclude tokyo: %+v", top)
	}
	if top.Start > 4 || top.End < 6 {
		t.Fatalf("timeframe [%d,%d] should cover [4,6]", top.Start, top.End)
	}
	if got := c.RegionalPatterns("absent", nil); got != nil {
		t.Fatal("unknown term should yield nil")
	}
}

func TestRegionalPatternsCaseAndOptions(t *testing.T) {
	c := demoCollection(t)
	// Query normalization: uppercase input matches the indexed term.
	if len(c.RegionalPatterns("EARTHQUAKE", nil)) == 0 {
		t.Fatal("case normalization failed")
	}
	for _, opts := range []*RegionalOptions{
		{Baseline: BaselineWindowMean, BaselineParam: 3},
		{Baseline: BaselineEWMA, BaselineParam: 0.5},
		{Baseline: BaselineSeasonal, BaselineParam: 5},
		{Grid: 8, Bounds: Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}},
		{KeepDominated: true},
	} {
		if ws := c.RegionalPatterns("earthquake", opts); len(ws) == 0 {
			t.Fatalf("no patterns under options %+v", opts)
		}
	}
}

func TestCombinatorialPatternsFacade(t *testing.T) {
	c := demoCollection(t)
	ps := c.CombinatorialPatterns("earthquake", nil)
	if len(ps) == 0 {
		t.Fatal("no combinatorial patterns")
	}
	top := ps[0]
	if len(top.Streams) != 2 {
		t.Fatalf("top pattern streams %v, want the two bursting cities", top.Streams)
	}
	if top.Streams[0] != 0 || top.Streams[1] != 1 {
		t.Fatalf("streams %v", top.Streams)
	}
	// Kleinberg detector variant.
	ps = c.CombinatorialPatterns("earthquake", &CombinatorialOptions{Detector: DetectorKleinberg})
	if len(ps) == 0 {
		t.Fatal("no Kleinberg patterns")
	}
	if got := c.CombinatorialPatterns("absent", nil); got != nil {
		t.Fatal("unknown term should yield nil")
	}
}

func TestTemporalBurstsFacade(t *testing.T) {
	c := demoCollection(t)
	ivs := c.TemporalBursts("earthquake")
	if len(ivs) == 0 {
		t.Fatal("no temporal bursts")
	}
	if ivs[0].Start > 4 || ivs[0].End < 6 {
		t.Fatalf("merged burst [%d,%d] should cover [4,6]", ivs[0].Start, ivs[0].End)
	}
	if got := c.TemporalBursts("absent"); got != nil {
		t.Fatal("unknown term should yield nil")
	}
}

func TestRegionalMinerStreaming(t *testing.T) {
	points := []Point{{X: 0, Y: 0}, {X: 1, Y: 1}}
	m := NewRegionalMiner(points, nil)
	for i := 0; i < 10; i++ {
		obs := []float64{1, 1}
		if i >= 3 && i <= 5 {
			obs = []float64{12, 14}
		}
		if err := m.Push(obs); err != nil {
			t.Fatal(err)
		}
	}
	if m.Timestamps() != 10 {
		t.Fatalf("Timestamps = %d", m.Timestamps())
	}
	ws := m.Windows()
	if len(ws) == 0 {
		t.Fatal("no windows")
	}
	top, _ := Best(ws)
	if top.Start > 3 || top.End < 5 {
		t.Fatalf("window [%d,%d] should cover [3,5]", top.Start, top.End)
	}
}

func TestCombinatorialMinerStreaming(t *testing.T) {
	m := NewCombinatorialMiner(2, nil)
	for i := 0; i < 8; i++ {
		obs := []float64{1, 1}
		if i == 4 {
			obs = []float64{9, 9}
		}
		if err := m.Push(obs); err != nil {
			t.Fatal(err)
		}
	}
	ps := m.Patterns(0)
	if len(ps) == 0 {
		t.Fatal("no online patterns")
	}
	if len(ps[0].Streams) != 2 {
		t.Fatalf("top online pattern %+v", ps[0])
	}
}

func TestRegionalEngineSearch(t *testing.T) {
	c := demoCollection(t)
	s := mustMineStore(t, c, nil, KindRegional)
	hits := queryHits(t, s, Query{Text: "earthquake", Kind: KindRegional, K: 5})
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	for _, h := range hits {
		if h.Stream == "tokyo" {
			t.Fatalf("regional engine returned far-city hit: %+v", h)
		}
		if h.Doc.Time < 4 || h.Doc.Time > 6 {
			t.Fatalf("hit outside burst: %+v", h)
		}
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Fatalf("hits unsorted: %+v", hits)
		}
	}
	if got := queryHits(t, s, Query{Text: "absent", Kind: KindRegional, K: 5}); got != nil {
		t.Fatal("unknown query should yield nil")
	}
}

func TestCombinatorialEngineSearch(t *testing.T) {
	c := demoCollection(t)
	s := mustMineStore(t, c, nil, KindCombinatorial)
	hits := queryHits(t, s, Query{Text: "earthquake", Kind: KindCombinatorial, K: 5})
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	for _, h := range hits {
		if h.Doc.Time < 4 || h.Doc.Time > 6 {
			t.Fatalf("hit outside burst: %+v", h)
		}
	}
}

func TestTemporalEngineSearch(t *testing.T) {
	c := demoCollection(t)
	s := mustMineStore(t, c, nil, KindTemporal)
	hits := queryHits(t, s, Query{Text: "earthquake", Kind: KindTemporal, K: 10})
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	// The temporal engine does not filter spatially, so all burst-window
	// docs qualify regardless of stream.
	for _, h := range hits {
		if h.Doc.Time < 4 || h.Doc.Time > 6 {
			t.Fatalf("hit outside burst window: %+v", h)
		}
	}
}

func TestMultiTermSearch(t *testing.T) {
	c := demoCollection(t)
	s := mustMineStore(t, c, nil, KindRegional)
	hits := queryHits(t, s, Query{Text: "earthquake damage", Kind: KindRegional, K: 5})
	for _, h := range hits {
		// "damage" appears only in lima's docs.
		if h.Stream != "lima" {
			t.Fatalf("conjunctive hit from wrong stream: %+v", h)
		}
	}
}
