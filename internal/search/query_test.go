package search

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"stburst/internal/core"
	"stburst/internal/geo"
	"stburst/internal/index"
)

// stlocalEngine builds a pattern-set-backed STLocal engine over the
// shared test collection.
func stlocalEngine(t *testing.T) *Engine {
	t.Helper()
	col := testCollection(t)
	return BuildFromPatterns(col, index.NewWindowSet(mineWindows(col, core.STLocalOptions{}, 1)))
}

// TestRunMatchesQuery: an unfiltered ranking, paged, is the index's plain
// TA top-k.
func TestRunMatchesQuery(t *testing.T) {
	e := stlocalEngine(t)
	for _, q := range []string{"quake", "quake damage", "nosuchterm"} {
		for _, k := range []int{1, 3, 100} {
			var want []Result
			if terms := termIDs(e, q); len(terms) > 0 {
				want = e.idx.TopK(terms, k, index.MissingExcludes)
			}
			got := topK(t, e, q, k)
			if len(want) != len(got) || (len(got) > 0 && !reflect.DeepEqual(want, got)) {
				t.Errorf("Page(Rank(%q), %d) diverges from TopK: %v vs %v", q, k, want, got)
			}
		}
	}
}

// TestRunRegionFilter: the post-filter keeps exactly the unfiltered hits
// with a contributing window intersecting the region (brute-force
// oracle; note a window may span streams far outside the region — any
// intersecting contributor keeps the hit).
func TestRunRegionFilter(t *testing.T) {
	e := stlocalEngine(t)
	term, ok := e.col.Dict().Lookup("quake")
	if !ok {
		t.Fatal("quake not interned")
	}
	all, _, err := run(context.Background(), e, Query{Terms: []int{term}}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("no unfiltered hits")
	}
	for _, region := range []geo.Rect{
		{MinX: -1, MinY: -1, MaxX: 1, MaxY: 1},
		{MinX: 99, MinY: 99, MaxX: 101, MaxY: 101},
		{MinX: 40, MinY: 40, MaxX: 60, MaxY: 60},
		{MinX: -10, MinY: -10, MaxX: -5, MaxY: -5},
	} {
		var want []Result
		for _, r := range all {
			d := e.col.Doc(r.Doc)
			for _, w := range e.ps.Windows(term) {
				if w.Overlaps(d.Stream, d.Time) && w.Rect.Intersects(region) {
					want = append(want, r)
					break
				}
			}
		}
		got, _, err := run(context.Background(), e, Query{Terms: []int{term}, Region: &region}, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("region %v: got %d hits, brute force wants %d", region, len(got), len(want))
		}
	}
}

// TestRunSpanFilter: the temporal filter requires a contributing pattern
// intersecting the span — not merely a document inside it.
func TestRunSpanFilter(t *testing.T) {
	e := stlocalEngine(t)
	quake := termIDs(e, "quake")
	burst := Timespan{Start: 2, End: 3}
	hits, _, err := run(context.Background(), e, Query{Terms: quake, Span: &burst}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("span over the burst matched nothing")
	}
	outside := Timespan{Start: 5, End: 5}
	hits, _, err = run(context.Background(), e, Query{Terms: quake, Span: &outside}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Errorf("span outside every pattern matched %d hits", len(hits))
	}
}

// TestRunOffsetPastLastHit is the regression test for the pathological
// page: an Offset at or beyond the shortest query term's posting list
// can never land on a hit, so Rank must return an empty ranking — an
// empty page with More=false — without an index pass. An Offset past
// the last hit but within the bound costs exactly one pass.
func TestRunOffsetPastLastHit(t *testing.T) {
	e := stlocalEngine(t)
	term, ok := e.col.Dict().Lookup("quake")
	if !ok {
		t.Fatal("no quake term")
	}
	bound := e.idx.CandidateBound([]int{term})
	if bound == 0 {
		t.Fatal("quake has no postings")
	}

	// Way past every possible hit, filtered and unfiltered: zero passes.
	region := geo.Rect{MinX: -1, MinY: -1, MaxX: 1, MaxY: 1}
	for _, q := range []Query{
		{Terms: []int{term}, Offset: bound},
		{Terms: []int{term}, Offset: 1 << 20},
		{Terms: []int{term}, Offset: bound, Region: &region},
	} {
		before := FetchRounds()
		hits, more, err := run(context.Background(), e, q, 10)
		if err != nil {
			t.Fatalf("offset %d: %v", q.Offset, err)
		}
		if len(hits) != 0 || more {
			t.Errorf("offset %d: page = %d hits, more=%v; want empty, false", q.Offset, len(hits), more)
		}
		if passes := FetchRounds() - before; passes != 0 {
			t.Errorf("offset %d: %d index passes, want 0 (the candidate bound answers it)", q.Offset, passes)
		}
	}

	// Just past the last actual hit (but inside the bound): one pass.
	before := FetchRounds()
	full, _, err := run(context.Background(), e, Query{Terms: []int{term}}, bound)
	if err != nil {
		t.Fatal(err)
	}
	if passes := FetchRounds() - before; passes != 1 {
		t.Errorf("full page took %d index passes, want 1", passes)
	}
	n := len(full)
	if n == 0 || n > bound {
		t.Fatalf("full fetch returned %d hits (bound %d)", n, bound)
	}
	if n < bound {
		before := FetchRounds()
		hits, more, err := run(context.Background(), e, Query{Terms: []int{term}, Offset: n}, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) != 0 || more {
			t.Errorf("offset at last hit: page = %d hits, more=%v; want empty, false", len(hits), more)
		}
		if passes := FetchRounds() - before; passes != 1 {
			t.Errorf("offset at last hit took %d index passes, want 1", passes)
		}
	}
}

// TestRunStarvedPageOnePass: a post-filter that starves the page costs one
// index pass, not a pass per fetch depth, and answers an empty page with
// More=false.
func TestRunStarvedPageOnePass(t *testing.T) {
	e := stlocalEngine(t)
	// A region intersecting nothing starves every page.
	region := geo.Rect{MinX: 900, MinY: 900, MaxX: 901, MaxY: 901}
	before := FetchRounds()
	hits, more, err := run(context.Background(), e, Query{Terms: termIDs(e, "quake"), Region: &region}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 || more {
		t.Errorf("starved page = %d hits, more=%v", len(hits), more)
	}
	if passes := FetchRounds() - before; passes != 1 {
		t.Errorf("starved query took %d index passes, want 1", passes)
	}
}

// TestRunCancelledContext: cancellation is observed before retrieval.
func TestRunCancelledContext(t *testing.T) {
	e := stlocalEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := run(ctx, e, Query{Terms: termIDs(e, "quake")}, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestMineCtxCancelled: the ctx-aware corpus miners abort with ctx.Err().
func TestMineCtxCancelled(t *testing.T) {
	col := testCollection(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MineWindowsParCtx(ctx, col, core.STLocalOptions{}, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("MineWindowsParCtx: err = %v, want context.Canceled", err)
	}
	if _, err := MineCombPatternsParCtx(ctx, col, core.STCombOptions{}, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("MineCombPatternsParCtx: err = %v, want context.Canceled", err)
	}
	if _, err := MineTemporalParCtx(ctx, col, nil, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("MineTemporalParCtx: err = %v, want context.Canceled", err)
	}
}
