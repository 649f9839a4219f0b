package search

import (
	"context"
	"strings"
	"testing"

	"stburst/internal/burst"
	"stburst/internal/core"
	"stburst/internal/geo"
	"stburst/internal/index"
	"stburst/internal/interval"
	"stburst/internal/stream"
)

// testCollection builds a small two-country corpus with a localized burst
// of "quake" in country A during weeks 2-3, plus ambient mentions of
// "quake" in country B.
func testCollection(t *testing.T) *stream.Collection {
	t.Helper()
	infos := []stream.Info{
		{Name: "A", Location: geo.Point{X: 0, Y: 0}},
		{Name: "B", Location: geo.Point{X: 100, Y: 100}},
	}
	col := stream.NewCollection(infos, 6)
	add := func(s, w int, tokens ...string) int {
		id, err := col.AddTokens(s, w, tokens)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	for w := 0; w < 6; w++ {
		add(0, w, "local", "news", "report")
		add(1, w, "world", "news", "report")
	}
	// The burst: many quake docs in A at weeks 2-3.
	for i := 0; i < 5; i++ {
		add(0, 2, "quake", "quake", "damage")
		add(0, 3, "quake", "rescue")
	}
	// Ambient: a single quake mention in B at week 2 (unrelated usage).
	add(1, 2, "quake", "metaphor")
	return col
}

// topK runs a free-text query the way the root package does: split,
// intern (an unknown term zeroes the query), Rank, Page.
func topK(t *testing.T, e *Engine, q string, k int) []Result {
	t.Helper()
	hits, _, err := run(context.Background(), e, Query{Terms: termIDs(e, q)}, k)
	if err != nil {
		t.Fatalf("Rank(%q) paged by %d: %v", q, k, err)
	}
	return hits
}

// run pages q's ranking from q.Offset by k, as the root Engine.Run does.
func run(ctx context.Context, e *Engine, q Query, k int) ([]Result, bool, error) {
	return index.Page(ctx, e.Rank(ctx, q), q.Offset, k)
}

// termIDs interns a whitespace-separated query; nil when a term is
// unknown to the collection.
func termIDs(e *Engine, q string) []int {
	var ids []int
	for _, tok := range strings.Fields(q) {
		id, ok := e.col.Dict().Lookup(tok)
		if !ok {
			return nil
		}
		ids = append(ids, id)
	}
	return ids
}

// The single-kind miners as the tests use them: no context, typed maps
// in and out.

func mineWindows(col *stream.Collection, opts core.STLocalOptions, workers int) map[int][]core.Window {
	ws, err := MineWindowsParCtx(context.Background(), col, opts, workers)
	if err != nil {
		panic(err)
	}
	return ws
}

func mineCombs(col *stream.Collection, opts core.STCombOptions, workers int) map[int][]core.CombPattern {
	ps, err := MineCombPatternsParCtx(context.Background(), col, opts, workers)
	if err != nil {
		panic(err)
	}
	return ps
}

func mineTemporal(col *stream.Collection, det burst.Detector, workers int) map[int][]burst.Interval {
	ivs, err := MineTemporalParCtx(context.Background(), col, det, workers)
	if err != nil {
		panic(err)
	}
	return ivs
}

func docIDs(rs []Result) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.Doc
	}
	return out
}

func TestEngineSTLocalFiltersBySpace(t *testing.T) {
	col := testCollection(t)
	windows := mineWindows(col, core.STLocalOptions{}, 1)
	quake, _ := col.Dict().Lookup("quake")
	if len(windows[quake]) == 0 {
		t.Fatal("no windows mined for quake")
	}
	eng := BuildFromPatterns(col, index.NewWindowSet(windows))
	rs := topK(t, eng, "quake", 10)
	if len(rs) == 0 {
		t.Fatal("no results")
	}
	for _, r := range rs {
		d := col.Doc(r.Doc)
		if d.Stream != 0 {
			t.Fatalf("STLocal engine returned doc from far stream %d: %+v", d.Stream, d)
		}
	}
}

func TestEngineScoresDescend(t *testing.T) {
	col := testCollection(t)
	eng := BuildFromPatterns(col, index.NewWindowSet(mineWindows(col, core.STLocalOptions{}, 1)))
	rs := topK(t, eng, "quake", 10)
	for i := 1; i < len(rs); i++ {
		if rs[i].Score > rs[i-1].Score {
			t.Fatalf("scores not descending: %+v", rs)
		}
	}
}

func TestEngineTBIgnoresSpace(t *testing.T) {
	col := testCollection(t)
	temporal := mineTemporal(col, nil, 1)
	eng := BuildFromPatterns(col, index.NewTemporalSet(temporal))
	rs := topK(t, eng, "quake", 20)
	if len(rs) == 0 {
		t.Fatal("no TB results")
	}
	// TB must include the ambient week-2 document from stream B, because
	// it only checks timestamps.
	foundFar := false
	for _, r := range rs {
		if col.Doc(r.Doc).Stream == 1 {
			foundFar = true
		}
	}
	if !foundFar {
		t.Fatal("TB engine should not filter by stream")
	}
}

func TestEngineCombPatterns(t *testing.T) {
	col := testCollection(t)
	patterns := mineCombs(col, core.STCombOptions{}, 1)
	quake, _ := col.Dict().Lookup("quake")
	if len(patterns[quake]) == 0 {
		t.Fatal("no STComb patterns for quake")
	}
	eng := BuildFromPatterns(col, index.NewCombSet(patterns))
	rs := topK(t, eng, "quake", 10)
	if len(rs) == 0 {
		t.Fatal("no results")
	}
	// All results must overlap the pattern temporally.
	for _, r := range rs {
		d := col.Doc(r.Doc)
		if d.Time < 2 || d.Time > 3 {
			t.Fatalf("result outside burst timeframe: %+v", d)
		}
	}
}

func TestEngineUnknownTerm(t *testing.T) {
	col := testCollection(t)
	eng := BuildFromPatterns(col, index.NewWindowSet(mineWindows(col, core.STLocalOptions{}, 1)))
	if rs := topK(t, eng, "nonexistent", 5); len(rs) != 0 {
		t.Fatalf("unknown term: got %v", rs)
	}
	if rs := topK(t, eng, "", 5); len(rs) != 0 {
		t.Fatalf("empty query: got %v", rs)
	}
}

func TestEngineMultiTermConjunction(t *testing.T) {
	col := testCollection(t)
	eng := BuildFromPatterns(col, index.NewWindowSet(mineWindows(col, core.STLocalOptions{}, 1)))
	// "quake damage" must only return docs overlapping patterns of both.
	rs := topK(t, eng, "quake damage", 10)
	for _, r := range rs {
		d := col.Doc(r.Doc)
		if d.Time != 2 {
			t.Fatalf("conjunctive result outside joint burst: %+v", d)
		}
	}
}

func TestBurstinessAdapters(t *testing.T) {
	w := core.Window{
		Rect:    geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
		Streams: []int{0},
		Start:   2, End: 3, Score: 5,
	}
	wb := index.NewWindowSet(map[int][]core.Window{7: {w}}).Coverage(4, 8)
	wb.Paint(7)
	if s, ok := wb.At(0, 2); !ok || s != 5 {
		t.Fatalf("window overlap: (%v,%v)", s, ok)
	}
	if _, ok := wb.At(1, 2); ok {
		t.Fatal("wrong stream should not overlap")
	}
	wb.Paint(8)
	if _, ok := wb.At(0, 2); ok {
		t.Fatal("wrong term should not overlap")
	}

	p := core.CombPattern{
		Streams: []int{1, 3}, Start: 0, End: 4, Score: 2,
		Intervals: []interval.Interval{
			{Start: 0, End: 4, Stream: 1},
			{Start: 0, End: 6, Stream: 3},
		},
	}
	cb := index.NewCombSet(map[int][]core.CombPattern{7: {p}}).Coverage(4, 8)
	cb.Paint(7)
	if s, ok := cb.At(3, 4); !ok || s != 2 {
		t.Fatalf("comb overlap: (%v,%v)", s, ok)
	}
	if _, ok := cb.At(2, 4); ok {
		t.Fatal("non-member stream should not overlap")
	}
	// Member overlap extends beyond the common segment through the
	// member's own interval.
	if s, ok := cb.At(3, 6); !ok || s != 2 {
		t.Fatalf("member-interval overlap: (%v,%v)", s, ok)
	}
	if _, ok := cb.At(1, 6); ok {
		t.Fatal("outside the member's own interval should not overlap")
	}

	// The temporal grid is one time row: any stream reads it.
	tb := index.NewTemporalSet(map[int][]burst.Interval{7: {{Start: 1, End: 2, Score: 0.4}}}).Coverage(4, 8)
	tb.Paint(7)
	if s, ok := tb.At(99, 1); !ok || s != 0.4 {
		t.Fatalf("temporal overlap: (%v,%v)", s, ok)
	}
	if _, ok := tb.At(0, 3); ok {
		t.Fatal("outside interval should not overlap")
	}
}

func TestBurstinessMaxAggregation(t *testing.T) {
	// Eq. 11 with f = max: overlapping several patterns yields the
	// highest score.
	ws := []core.Window{
		{Rect: geo.Rect{MaxX: 10, MaxY: 10}, Streams: []int{0}, Start: 0, End: 9, Score: 1},
		{Rect: geo.Rect{MaxX: 10, MaxY: 10}, Streams: []int{0}, Start: 2, End: 4, Score: 7},
	}
	wb := index.NewWindowSet(map[int][]core.Window{0: ws}).Coverage(1, 10)
	wb.Paint(0)
	if s, _ := wb.At(0, 3); s != 7 {
		t.Fatalf("max aggregation: got %v, want 7", s)
	}
}

func TestEngineRelevanceWeighting(t *testing.T) {
	// Two docs in the same pattern: the one with higher term frequency
	// must rank first (relevance = log(freq+1)).
	infos := []stream.Info{{Name: "A", Location: geo.Point{X: 0, Y: 0}}}
	col := stream.NewCollection(infos, 4)
	lo, err := col.AddTokens(0, 1, []string{"quake"})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := col.AddTokens(0, 1, []string{"quake", "quake", "quake"})
	if err != nil {
		t.Fatal(err)
	}
	quake, _ := col.Dict().Lookup("quake")
	eng := BuildFromPatterns(col, index.NewTemporalSet(map[int][]burst.Interval{quake: {{Start: 1, End: 1, Score: 2}}}))
	rs := topK(t, eng, "quake", 2)
	if len(rs) != 2 || rs[0].Doc != hi || rs[1].Doc != lo {
		t.Fatalf("got %+v, want hi=%d first then lo=%d", rs, hi, lo)
	}
}

func TestMineWindowsSkipsQuietTerms(t *testing.T) {
	col := testCollection(t)
	windows := mineWindows(col, core.STLocalOptions{}, 1)
	// Terms present at constant rate everywhere ("news") should have no
	// or only weak windows; the map must not contain empty entries.
	for term, ws := range windows {
		if len(ws) == 0 {
			t.Fatalf("empty window list stored for term %d", term)
		}
	}
	_ = docIDs // silence unused helper when tests are filtered
}
