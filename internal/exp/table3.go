package exp

import (
	"context"
	"fmt"

	"stburst/internal/eval"
	"stburst/internal/gen"
	"stburst/internal/index"
	"stburst/internal/search"
)

// Table3Row is one row of Table 3: the precision in the top-10 documents
// retrieved for a Major Events List query by the three engines.
type Table3Row struct {
	EventID int
	Query   string
	TB      float64
	STLocal float64
	STComb  float64
}

// Table3Result bundles the per-query precisions with the pairwise top-k
// overlap analysis of §6.3.
type Table3Result struct {
	Rows []Table3Row
	// Mean pairwise top-10 overlaps (the paper reports 0.61, 0.58, 0.67).
	OverlapCombTB    float64
	OverlapCombLocal float64
	OverlapTBLocal   float64
	// Mean precision per engine.
	MeanTB, MeanSTLocal, MeanSTComb float64
}

// Table3 runs the Bursty Documents evaluation (§6.3): build one engine
// per pattern type over the same corpus, retrieve the top-10 documents
// per query, and score precision against the generator's ground-truth
// event labels (replacing the paper's human annotator).
func Table3(l *Lab, k int) Table3Result {
	if k <= 0 {
		k = 10
	}
	col := l.Col()
	engLocal := search.BuildFromPatterns(col, index.NewWindowSet(l.Windows))
	engComb := search.BuildFromPatterns(col, index.NewCombSet(l.Combs))
	engTB := search.BuildFromPatterns(col, index.NewTemporalSet(l.Temporal))

	var res Table3Result
	var oCombTB, oCombLocal, oTBLocal float64
	for _, ev := range gen.Events {
		terms := l.TP.QueryTerms[ev.ID]
		relevant := l.TP.Relevant(ev.ID)
		top := func(eng *search.Engine) []int {
			// Page fails only on a cancelled context.
			ctx := context.Background()
			hits, _, _ := index.Page(ctx, eng.Rank(ctx, search.Query{Terms: terms}), 0, k)
			return docsOf(hits)
		}
		topTB, topLocal, topComb := top(engTB), top(engLocal), top(engComb)
		row := Table3Row{
			EventID: ev.ID,
			Query:   queryString(ev),
			TB:      eval.PrecisionAtK(topTB, relevant, k),
			STLocal: eval.PrecisionAtK(topLocal, relevant, k),
			STComb:  eval.PrecisionAtK(topComb, relevant, k),
		}
		res.Rows = append(res.Rows, row)
		oCombTB += eval.TopKOverlap(topComb, topTB, k)
		oCombLocal += eval.TopKOverlap(topComb, topLocal, k)
		oTBLocal += eval.TopKOverlap(topTB, topLocal, k)
		res.MeanTB += row.TB
		res.MeanSTLocal += row.STLocal
		res.MeanSTComb += row.STComb
	}
	n := float64(len(res.Rows))
	res.OverlapCombTB = oCombTB / n
	res.OverlapCombLocal = oCombLocal / n
	res.OverlapTBLocal = oTBLocal / n
	res.MeanTB /= n
	res.MeanSTLocal /= n
	res.MeanSTComb /= n
	return res
}

func docsOf(rs []search.Result) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.Doc
	}
	return out
}

// FormatTable3 renders Table 3 plus the overlap analysis.
func FormatTable3(res Table3Result) string {
	out := make([][]string, 0, len(res.Rows)+1)
	for _, r := range res.Rows {
		out = append(out, []string{
			fmt.Sprint(r.EventID), r.Query,
			fmt.Sprintf("%.1f", r.TB),
			fmt.Sprintf("%.1f", r.STLocal),
			fmt.Sprintf("%.1f", r.STComb),
		})
	}
	out = append(out, []string{"", "mean",
		fmt.Sprintf("%.2f", res.MeanTB),
		fmt.Sprintf("%.2f", res.MeanSTLocal),
		fmt.Sprintf("%.2f", res.MeanSTComb),
	})
	table := formatTable([]string{"#", "Query", "TB", "STLocal", "STComb"}, out)
	return table + fmt.Sprintf(
		"\ntop-k overlap: STComb-TB %.2f, STComb-STLocal %.2f, TB-STLocal %.2f\n",
		res.OverlapCombTB, res.OverlapCombLocal, res.OverlapTBLocal)
}
