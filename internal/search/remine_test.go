package search

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"stburst/internal/core"
	"stburst/internal/gen"
	"stburst/internal/index"
	"stburst/internal/stream"
)

// appendTestBatch dirties a strict subset of the vocabulary: the
// existing "quake" term plus a brand-new "flood" term.
func appendTestBatch(t *testing.T, col *stream.Collection) []int {
	t.Helper()
	_, dirty, err := col.Append([]stream.AppendDoc{
		{Stream: 1, Time: 4, Counts: map[string]int{"quake": 2, "flood": 1}},
		{Stream: 0, Time: 5, Counts: map[string]int{"flood": 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirty
}

// TestRemineDirtyMatchesFullRemine is the internal oracle: refreshing
// only the dirty terms reproduces, map for map, a full re-mine of the
// whole vocabulary over the appended collection — for every kind and
// worker count.
func TestRemineDirtyMatchesFullRemine(t *testing.T) {
	col := testCollection(t)
	prevW := mineWindows(col, core.STLocalOptions{}, 1)
	prevC := mineCombs(col, core.STCombOptions{}, 1)
	prevT := mineTemporal(col, nil, 1)

	dirty := appendTestBatch(t, col)
	if len(dirty) == 0 || len(dirty) >= len(col.Terms()) {
		t.Fatalf("batch dirtied %d of %d terms; the oracle needs a strict non-empty subset", len(dirty), len(col.Terms()))
	}

	wantW := mineWindows(col, core.STLocalOptions{}, 1)
	wantC := mineCombs(col, core.STCombOptions{}, 1)
	wantT := mineTemporal(col, nil, 1)

	for _, workers := range []int{1, 3, 0} {
		gotW, gotC, gotT, err := RemineDirtyParCtx(context.Background(), col, dirty,
			prevW, prevC, prevT, core.STLocalOptions{}, core.STCombOptions{}, nil, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(gotW, wantW) {
			t.Errorf("workers=%d: windows diverge from full re-mine", workers)
		}
		if !reflect.DeepEqual(gotC, wantC) {
			t.Errorf("workers=%d: comb patterns diverge from full re-mine", workers)
		}
		if !reflect.DeepEqual(gotT, wantT) {
			t.Errorf("workers=%d: temporal intervals diverge from full re-mine", workers)
		}
	}
}

// TestRemineDirtyCountsOnlyDirtyTerms: the incremental path mines
// exactly |dirty| x |active kinds| jobs, never the full vocabulary.
func TestRemineDirtyCountsOnlyDirtyTerms(t *testing.T) {
	col := testCollection(t)
	prevW := mineWindows(col, core.STLocalOptions{}, 1)
	prevT := mineTemporal(col, nil, 1)
	dirty := appendTestBatch(t, col)

	before := TermsMined()
	if _, _, _, err := RemineDirtyParCtx(context.Background(), col, dirty,
		prevW, nil, prevT, core.STLocalOptions{}, core.STCombOptions{}, nil, 2); err != nil {
		t.Fatal(err)
	}
	if delta, want := TermsMined()-before, int64(2*len(dirty)); delta != want {
		t.Errorf("re-mined %d jobs, want %d (2 active kinds x %d dirty terms)", delta, want, len(dirty))
	}
}

// TestRemineDirtySkipsInactiveKinds: a nil prev map keeps its kind out
// of the work list and returns nil for it.
func TestRemineDirtySkipsInactiveKinds(t *testing.T) {
	col := testCollection(t)
	prevT := mineTemporal(col, nil, 1)
	dirty := appendTestBatch(t, col)
	w, c, tp, err := RemineDirtyParCtx(context.Background(), col, dirty,
		nil, nil, prevT, core.STLocalOptions{}, core.STCombOptions{}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w != nil || c != nil {
		t.Error("inactive kinds were re-mined")
	}
	if want := mineTemporal(col, nil, 1); !reflect.DeepEqual(tp, want) {
		t.Error("temporal refresh diverges from full re-mine")
	}
}

// TestRemineDirtyDoesNotMutatePrev: the previous maps — still serving
// live queries during a refresh — are never written.
func TestRemineDirtyDoesNotMutatePrev(t *testing.T) {
	col := testCollection(t)
	prevW := mineWindows(col, core.STLocalOptions{}, 1)
	frozen := make(map[int][]core.Window, len(prevW))
	for k, v := range prevW {
		frozen[k] = append([]core.Window(nil), v...)
	}
	dirty := appendTestBatch(t, col)
	if _, _, _, err := RemineDirtyParCtx(context.Background(), col, dirty,
		prevW, nil, nil, core.STLocalOptions{}, core.STCombOptions{}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if len(prevW) != len(frozen) {
		t.Fatal("refresh changed the previous map's size")
	}
	for k, v := range frozen {
		if !reflect.DeepEqual(prevW[k], v) {
			t.Fatalf("refresh mutated the previous windows of term %d", k)
		}
	}
}

// TestRemineDirtyCancel: a cancelled context aborts the pass.
func TestRemineDirtyCancel(t *testing.T) {
	col := testCollection(t)
	prevW := mineWindows(col, core.STLocalOptions{}, 1)
	dirty := appendTestBatch(t, col)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := RemineDirtyParCtx(ctx, col, dirty,
		prevW, nil, nil, core.STLocalOptions{}, core.STCombOptions{}, nil, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled re-mine = %v, want context.Canceled", err)
	}
}

// TestRefreshMatchesBuild: refreshing an engine for the dirty terms of
// an append yields, for every kind, the postings a from-scratch build
// over the re-mined set holds.
func TestRefreshMatchesBuild(t *testing.T) {
	col := testCollection(t)
	prev := []*index.PatternSet{index.EmptySet(index.KindRegional), index.EmptySet(index.KindCombinatorial), index.EmptySet(index.KindTemporal)}
	prev, err := MineSets(context.Background(), col, col.Terms(), prev, &index.MineOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var engines []*Engine
	for _, ps := range prev {
		engines = append(engines, BuildFromPatterns(col, ps))
	}
	dirty := appendTestBatch(t, col)
	next, err := MineSets(context.Background(), col, dirty, prev, &index.MineOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k, ps := range next {
		got, want := engines[k].Refresh(ps, dirty).Index(), BuildFromPatterns(col, ps).Index()
		if got.Terms() != want.Terms() {
			t.Errorf("%v: refreshed engine holds %d terms, built %d", ps.Kind(), got.Terms(), want.Terms())
		}
		for _, term := range col.Terms() {
			if !slices.Equal(got.Postings(term), want.Postings(term)) {
				t.Errorf("%v: term %d postings %v, built %v", ps.Kind(), term, got.Postings(term), want.Postings(term))
			}
		}
	}
}

// BenchmarkEngineRefresh sets the full engine build against the refresh
// an ingest pays — five dirty terms re-scored, every other term's
// postings shared — on the generated Topix corpus of bench/'s xs size,
// for every kind: build/<kind> and refresh5/<kind>.
func BenchmarkEngineRefresh(b *testing.B) {
	tp, err := gen.NewTopix(gen.TopixConfig{Seed: 1, WeeklyArticles: 0.2, Vocab: 150, TokensPerArticle: 8})
	if err != nil {
		b.Fatal(err)
	}
	prev := []*index.PatternSet{index.EmptySet(index.KindRegional), index.EmptySet(index.KindCombinatorial), index.EmptySet(index.KindTemporal)}
	sets, err := MineSets(context.Background(), tp.Col, tp.Col.Terms(), prev, &index.MineOptions{}, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("build", func(b *testing.B) {
		for _, ps := range sets {
			b.Run(ps.Kind().String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					BuildFromPatterns(tp.Col, ps)
				}
			})
		}
	})
	b.Run("refresh5", func(b *testing.B) {
		for _, ps := range sets {
			terms := ps.Terms()
			var dirty []int
			for i := 0; i < 5; i++ {
				dirty = append(dirty, terms[i*len(terms)/5])
			}
			eng := BuildFromPatterns(tp.Col, ps)
			b.Run(ps.Kind().String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					eng.Refresh(ps, dirty)
				}
			})
		}
	})
}
