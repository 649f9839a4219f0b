package stburst

// One benchmark per table and figure of the paper's evaluation (§6).
// Each benchmark regenerates the corresponding result through the shared
// experiment harness (internal/exp) and reports it with b.Log, so
// `go test -bench=. -benchmem` both times the experiments and prints the
// reproduced rows. Scales are reduced from the paper's (181×48 corpus at
// a lower article rate, shortened Fig. 8 sweep) so the full suite runs in
// minutes; cmd/stbench exposes the full-scale runs.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"stburst/internal/core"
	"stburst/internal/exp"
	"stburst/internal/gen"
	"stburst/internal/index"
	"stburst/internal/search"
)

var (
	labOnce  sync.Once
	benchLab *exp.Lab
	labErr   error
)

// sharedLab builds one small Topix-like corpus (plus all three mined
// pattern sets) for every corpus-based benchmark.
func sharedLab(b *testing.B) *exp.Lab {
	b.Helper()
	labOnce.Do(func() {
		benchLab, labErr = exp.NewLab(gen.TopixConfig{Seed: 1, WeeklyArticles: 3, Vocab: 2500})
	})
	if labErr != nil {
		b.Fatal(labErr)
	}
	return benchLab
}

// BenchmarkMineAllRegional measures the corpus-wide STLocal batch miner
// at worker counts 1 (the sequential loop) and GOMAXPROCS, on the shared
// multi-term synthetic corpus; output is bit-identical at every count.
func BenchmarkMineAllRegional(b *testing.B) {
	col := sharedLab(b).Col()
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := search.MineWindowsParCtx(context.Background(), col, core.STLocalOptions{}, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMineAllCombinatorial is the STComb counterpart of
// BenchmarkMineAllRegional.
func BenchmarkMineAllCombinatorial(b *testing.B) {
	col := sharedLab(b).Col()
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := search.MineCombPatternsParCtx(context.Background(), col, core.STCombOptions{}, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// queryBenchSetup builds one pattern-set-backed STLocal engine over the
// shared corpus and deterministically picks a reference term and window
// (the lowest interned bursty term's top window), so the filtered and
// unfiltered query benchmarks exercise the same index and query.
func queryBenchSetup(b *testing.B) (*search.Engine, string, core.Window) {
	b.Helper()
	lab := sharedLab(b)
	eng := search.BuildFromPatterns(lab.Col(), index.NewWindowSet(lab.Windows))
	terms := make([]int, 0, len(lab.Windows))
	for t := range lab.Windows {
		terms = append(terms, t)
	}
	if len(terms) == 0 {
		b.Fatal("no bursty terms in the benchmark corpus")
	}
	sort.Ints(terms)
	term := terms[0]
	return eng, lab.Col().Dict().Term(term), lab.Windows[term][0]
}

// BenchmarkQueryUnfiltered measures plain structured top-k retrieval, the
// baseline for the overlap filter's overhead.
func BenchmarkQueryUnfiltered(b *testing.B) {
	eng, term, _ := queryBenchSetup(b)
	q := search.Query{Text: term, K: 10}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryFiltered measures the same retrieval through the
// spatiotemporal pattern-overlap post-filter (region and timespan pinned
// to the reference window), so the filter's overhead is tracked release
// over release.
func BenchmarkQueryFiltered(b *testing.B) {
	eng, term, w := queryBenchSetup(b)
	q := search.Query{
		Text:   term,
		K:      10,
		Region: &w.Rect,
		Span:   &search.Timespan{Start: w.Start, End: w.End},
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// storeBenchSetup wraps the shared lab's three mined pattern maps into a
// public multi-kind store with warmed engines, plus a reference query
// term (the lowest interned bursty term, as in queryBenchSetup).
func storeBenchSetup(b *testing.B) (*Store, string) {
	b.Helper()
	lab := sharedLab(b)
	c := &Collection{col: lab.Col()}
	store := NewStore(c)
	if err := store.Replace(
		&PatternIndex{c: c, set: index.NewWindowSet(lab.Windows)},
		&PatternIndex{c: c, set: index.NewCombSet(lab.Combs)},
		&PatternIndex{c: c, set: index.NewTemporalSet(lab.Temporal)},
	); err != nil {
		b.Fatal(err)
	}
	terms := make([]int, 0, len(lab.Windows))
	for t := range lab.Windows {
		terms = append(terms, t)
	}
	if len(terms) == 0 {
		b.Fatal("no bursty terms in the benchmark corpus")
	}
	sort.Ints(terms)
	for _, k := range Kinds() {
		store.Index(k).Engine() // build outside the timed loop
	}
	return store, lab.Col().Dict().Term(terms[0])
}

// BenchmarkStoreQuerySingleKind measures a concrete-kind query routed
// through the store — the per-request cost of the multi-kind dispatch
// over querying the index directly.
func BenchmarkStoreQuerySingleKind(b *testing.B) {
	store, term := storeBenchSetup(b)
	q := Query{Text: term, Kind: KindRegional, K: 10}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Query(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreQueryAny measures the KindAny fan-out: three per-kind
// retrievals plus the merge, the price of comparing all burstiness
// models in one request.
func BenchmarkStoreQueryAny(b *testing.B) {
	store, term := storeBenchSetup(b)
	q := Query{Text: term, K: 10}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Query(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMineStore compares the one-pass three-kind miner against the
// three single-kind passes it replaces, on the shared corpus. The
// one-pass variant drains a single (term, kind) work list, so its
// wall-clock should approach the sum of the per-kind costs divided by
// the worker count, without three separate pool ramp-downs.
func BenchmarkMineStore(b *testing.B) {
	lab := sharedLab(b)
	c := &Collection{col: lab.Col()}
	ctx := context.Background()
	b.Run("onepass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.MineStore(ctx, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("threepasses", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, kind := range Kinds() {
				if _, err := c.Mine(ctx, kind, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// ingestBenchCollection builds a deterministic mid-sized corpus for the
// live-ingestion benchmarks: enough vocabulary that a realistic arrival
// batch dirties well under 5% of the terms, which is exactly the regime
// where incremental re-mining should beat a full re-mine.
func ingestBenchCollection(b *testing.B) *Collection {
	b.Helper()
	const streams, weeks, vocab = 12, 30, 600
	infos := make([]StreamInfo, streams)
	for i := range infos {
		infos[i] = StreamInfo{Name: fmt.Sprintf("s%02d", i), Location: Point{X: float64(i % 4), Y: float64(i / 4)}}
	}
	c := NewCollection(infos, weeks)
	rng := rand.New(rand.NewSource(7))
	for w := 0; w < weeks; w++ {
		for s := 0; s < streams; s++ {
			for d := 0; d < 2; d++ {
				toks := make([]string, 6)
				for i := range toks {
					toks[i] = fmt.Sprintf("term%04d", rng.Intn(vocab))
				}
				if _, err := c.AddTokens(s, w, toks); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return c
}

// ingestBenchBatch is the arrival batch: a handful of documents over a
// small fixed vocabulary slice (a few existing terms plus new ones), so
// the dirty set stays far below 5% of the corpus vocabulary.
func ingestBenchBatch() []IncomingDocument {
	docs := make([]IncomingDocument, 6)
	for i := range docs {
		docs[i] = IncomingDocument{
			Stream: i % 12,
			Time:   20 + i,
			Tokens: []string{
				fmt.Sprintf("term%04d", i),       // existing term goes dirty
				fmt.Sprintf("breaking%02d", i%4), // new vocabulary
				fmt.Sprintf("breaking%02d", i%4),
				"alert",
			},
		}
	}
	return docs
}

// BenchmarkIngestIncremental measures the live write path: one Ingest
// call — append, dirty-term re-mine across all three resident kinds,
// engine warm-up and the atomic install — against a store freshly mined
// outside the timed region.
func BenchmarkIngestIncremental(b *testing.B) {
	ctx := context.Background()
	batch := ingestBenchBatch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := ingestBenchCollection(b)
		s, err := c.MineStore(ctx, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := s.Ingest(ctx, batch)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("batch dirties %d of %d terms (%.1f%%)",
				res.DirtyTerms, len(c.Terms()), 100*float64(res.DirtyTerms)/float64(len(c.Terms())))
		}
	}
}

// BenchmarkIngestFullRemine is the cold path the incremental ingest
// replaces: append the same batch, then re-mine the entire vocabulary
// from scratch and warm the engines — what a pre-ingest deployment had
// to do (stmine + reload) to fold new documents in.
func BenchmarkIngestFullRemine(b *testing.B) {
	ctx := context.Background()
	batch := ingestBenchBatch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := ingestBenchCollection(b)
		if _, err := c.MineStore(ctx, nil); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := c.Append(ctx, batch); err != nil {
			b.Fatal(err)
		}
		s, err := c.MineStore(ctx, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, kind := range Kinds() {
			s.Index(kind).Engine()
		}
	}
}

func BenchmarkTable1TopPatterns(b *testing.B) {
	lab := sharedLab(b)
	b.ReportAllocs()
	b.ResetTimer()
	var rows []exp.Table1Row
	for i := 0; i < b.N; i++ {
		rows = exp.Table1(lab)
	}
	b.StopTimer()
	b.Log("\n" + exp.FormatTable1(rows))
}

func BenchmarkFig4Timeframes(b *testing.B) {
	lab := sharedLab(b)
	b.ReportAllocs()
	b.ResetTimer()
	var rows []exp.Fig4Row
	for i := 0; i < b.N; i++ {
		rows = exp.Fig4(lab)
	}
	b.StopTimer()
	b.Log("\n" + exp.FormatFig4(rows))
}

func BenchmarkTable2PatternRetrieval(b *testing.B) {
	cfg := exp.Table2Config{Streams: 40, Timeline: 80, Terms: 200, Patterns: 30}
	b.ReportAllocs()
	b.ResetTimer()
	var rows []exp.Table2Row
	for i := 0; i < b.N; i++ {
		rows = exp.Table2(cfg)
	}
	b.StopTimer()
	b.Log("\n" + exp.FormatTable2(rows))
}

func BenchmarkTable3Precision(b *testing.B) {
	lab := sharedLab(b)
	b.ReportAllocs()
	b.ResetTimer()
	var res exp.Table3Result
	for i := 0; i < b.N; i++ {
		res = exp.Table3(lab, 10)
	}
	b.StopTimer()
	b.Log("\n" + exp.FormatTable3(res))
}

func BenchmarkFig5RectangleDistribution(b *testing.B) {
	lab := sharedLab(b)
	b.ReportAllocs()
	b.ResetTimer()
	var res exp.Fig5Result
	for i := 0; i < b.N; i++ {
		res = exp.Fig5(lab)
	}
	b.StopTimer()
	b.Log("\n" + exp.FormatFig5(res))
}

func BenchmarkFig6OpenWindows(b *testing.B) {
	lab := sharedLab(b)
	b.ReportAllocs()
	b.ResetTimer()
	var res exp.Fig6Result
	for i := 0; i < b.N; i++ {
		res = exp.Fig6(lab)
	}
	b.StopTimer()
	b.Logf("\npeak open windows per term: %.2f (upper bound at last timestamp: %d)",
		res.Peak, res.UpperBound[len(res.UpperBound)-1])
}

func BenchmarkFig7PerTimestampTime(b *testing.B) {
	lab := sharedLab(b)
	b.ReportAllocs()
	b.ResetTimer()
	var res exp.Fig7Result
	for i := 0; i < b.N; i++ {
		res = exp.Fig7(lab, 40)
	}
	b.StopTimer()
	last := len(res.Timestamps) - 1
	b.Logf("\nSTLocal %.4f ms/term vs STComb %.4f ms/term at final timestamp (%d terms sampled)",
		res.STLocalMs[last], res.STCombMs[last], res.TermSample)
}

func BenchmarkFig8Scalability(b *testing.B) {
	cfg := exp.Fig8Config{Sizes: []int{500, 1000, 2000}, TermCount: 2, Timeline: 120}
	b.ReportAllocs()
	b.ResetTimer()
	var rows []exp.Fig8Row
	for i := 0; i < b.N; i++ {
		rows = exp.Fig8(cfg)
	}
	b.StopTimer()
	b.Log("\n" + exp.FormatFig8(rows))
}

func BenchmarkFig9WeibullCurves(b *testing.B) {
	b.ReportAllocs()
	var rows []exp.Fig9Row
	for i := 0; i < b.N; i++ {
		rows = exp.Fig9()
	}
	b.StopTimer()
	b.Log("\n" + exp.FormatFig9(rows))
}
