package exp

import (
	"fmt"
	"sort"
	"time"

	"stburst/internal/core"
	"stburst/internal/eval"
	"stburst/internal/gen"
	"stburst/internal/par"
)

// Fig5Result is the Figure 5 histogram: the share of terms whose average
// number of bursty rectangles per timestamp falls into each bucket. The
// paper reports 92% of terms in [0,1).
type Fig5Result struct {
	Edges    []float64 // bucket lower edges: 0,1,2,3,4,5 (last is 5+)
	Percent  []float64 // share of terms per bucket
	NumTerms int
}

// Fig5 measures the average number of bursty rectangles reported per
// term per timestamp on the Topix-like corpus. The per-term STLocal
// replays are independent, so they fan out across the lab's worker pool.
func Fig5(l *Lab) Fig5Result {
	col := l.Col()
	points := col.Points()
	terms := col.Terms()
	sort.Ints(terms)
	avgs := make([]float64, len(terms))
	par.ForEach(len(terms), l.Workers(), func(ti int) {
		m := core.NewSTLocal(points, core.STLocalOptions{})
		surface := col.Surface(terms[ti])
		obs := make([]float64, len(points))
		for i := 0; i < col.Length(); i++ {
			for x := range surface {
				obs[x] = surface[x][i]
			}
			if err := m.Push(obs); err != nil {
				panic(err)
			}
		}
		avgs[ti] = float64(m.TotalRectCount()) / float64(col.Length())
	})
	edges := []float64{0, 1, 2, 3, 4, 5}
	counts := eval.Histogram(avgs, edges)
	res := Fig5Result{Edges: edges, Percent: make([]float64, len(edges)), NumTerms: len(avgs)}
	for i, c := range counts {
		res.Percent[i] = 100 * float64(c) / float64(len(avgs))
	}
	return res
}

// FormatFig5 renders the Figure 5 distribution.
func FormatFig5(r Fig5Result) string {
	rows := make([][]string, len(r.Edges))
	for i := range r.Edges {
		label := fmt.Sprintf("[%g,%g)", r.Edges[i], r.Edges[i]+1)
		if i == len(r.Edges)-1 {
			label = fmt.Sprintf("[%g,∞)", r.Edges[i])
		}
		rows[i] = []string{label, fmt.Sprintf("%.1f%%", r.Percent[i])}
	}
	return fmt.Sprintf("terms: %d\n", r.NumTerms) +
		formatTable([]string{"avg rectangles/timestamp", "share of terms"}, rows)
}

// Fig6Result is Figure 6: the average number of open spatiotemporal
// windows per term at each timestamp, against the worst-case upper bound
// n·i of the complexity analysis.
type Fig6Result struct {
	Open       []float64 // mean open sequences per term, per timestamp
	UpperBound []int     // n·(i+1)
	Peak       float64
}

// Fig6 measures the open-window population of STLocal on the Topix-like
// corpus.
func Fig6(l *Lab) Fig6Result {
	col := l.Col()
	points := col.Points()
	terms := col.Terms()
	sort.Ints(terms)
	// Per-term replays run in parallel; each writes its own history row,
	// and the rows are reduced sequentially so the sums stay deterministic
	// (float addition order is fixed by term order, not schedule).
	histories := make([][]int, len(terms))
	par.ForEach(len(terms), l.Workers(), func(ti int) {
		m := core.NewSTLocal(points, core.STLocalOptions{})
		surface := col.Surface(terms[ti])
		obs := make([]float64, len(points))
		hist := make([]int, col.Length())
		for i := range hist {
			for x := range surface {
				obs[x] = surface[x][i]
			}
			if err := m.Push(obs); err != nil {
				panic(err)
			}
			hist[i] = m.Open()
		}
		histories[ti] = hist
	})
	sums := make([]float64, col.Length())
	for _, hist := range histories {
		for i, open := range hist {
			sums[i] += float64(open)
		}
	}
	res := Fig6Result{
		Open:       make([]float64, col.Length()),
		UpperBound: make([]int, col.Length()),
	}
	for i := range sums {
		res.Open[i] = sums[i] / float64(len(terms))
		res.UpperBound[i] = col.NumStreams() * (i + 1)
		if res.Open[i] > res.Peak {
			res.Peak = res.Open[i]
		}
	}
	return res
}

// FormatFig6 renders the Figure 6 series.
func FormatFig6(r Fig6Result) string {
	rows := make([][]string, len(r.Open))
	for i := range r.Open {
		rows[i] = []string{
			fmt.Sprint(i + 1),
			fmt.Sprintf("%.2f", r.Open[i]),
			fmt.Sprint(r.UpperBound[i]),
		}
	}
	return fmt.Sprintf("peak open windows per term: %.2f\n", r.Peak) +
		formatTable([]string{"timestamp", "open windows/term", "upper bound n·i"}, rows)
}

// Fig7Result is Figure 7: mean per-term processing time per timestamp for
// both miners, emulating the streaming scenario on the Topix-like corpus.
type Fig7Result struct {
	Timestamps []int
	STLocalMs  []float64 // per-term time at each timestamp
	STCombMs   []float64
	TermSample int
}

// Fig7 times the two miners per timestamp. STLocal is online: one Push
// per snapshot. STComb must be re-applied to the whole prefix at every
// timestamp (the very limitation §6.4 discusses), so its cost grows with
// the prefix; to keep the experiment affordable the timing averages over
// a sample of terms.
func Fig7(l *Lab, termSample int) Fig7Result {
	col := l.Col()
	points := col.Points()
	terms := col.Terms()
	if termSample <= 0 {
		termSample = 100
	}
	if termSample > len(terms) {
		termSample = len(terms)
	}
	terms = terms[:termSample]

	L := col.Length()
	res := Fig7Result{TermSample: termSample}
	localNs := make([]float64, L)
	combNs := make([]float64, L)

	// STLocal: per-term streaming push.
	miners := make([]*core.STLocal, len(terms))
	surfaces := make([][][]float64, len(terms))
	for ti, term := range terms {
		miners[ti] = core.NewSTLocal(points, core.STLocalOptions{})
		surfaces[ti] = col.Surface(term)
	}
	obs := make([]float64, len(points))
	for i := 0; i < L; i++ {
		for ti := range terms {
			for x := range surfaces[ti] {
				obs[x] = surfaces[ti][x][i]
			}
			start := time.Now()
			if err := miners[ti].Push(obs); err != nil {
				panic(err)
			}
			localNs[i] += float64(time.Since(start).Nanoseconds())
		}
	}
	// STComb: re-run on the prefix [0..i] for every timestamp.
	for i := 0; i < L; i++ {
		for ti := range terms {
			prefix := make([][]float64, len(surfaces[ti]))
			for x := range prefix {
				prefix[x] = surfaces[ti][x][:i+1]
			}
			start := time.Now()
			core.STComb(prefix, core.STCombOptions{})
			combNs[i] += float64(time.Since(start).Nanoseconds())
		}
	}
	for i := 0; i < L; i++ {
		res.Timestamps = append(res.Timestamps, i+1)
		res.STLocalMs = append(res.STLocalMs, localNs[i]/float64(len(terms))/1e6)
		res.STCombMs = append(res.STCombMs, combNs[i]/float64(len(terms))/1e6)
	}
	return res
}

// FormatFig7 renders the Figure 7 series.
func FormatFig7(r Fig7Result) string {
	rows := make([][]string, len(r.Timestamps))
	for i := range r.Timestamps {
		rows[i] = []string{
			fmt.Sprint(r.Timestamps[i]),
			fmt.Sprintf("%.4f", r.STLocalMs[i]),
			fmt.Sprintf("%.4f", r.STCombMs[i]),
		}
	}
	return fmt.Sprintf("terms sampled: %d\n", r.TermSample) +
		formatTable([]string{"timestamp", "STLocal ms/term", "STComb ms/term"}, rows)
}

// Fig9Row is one curve of Figure 9: Weibull PDF values for a (k, c)
// setting, demonstrating the envelope shapes the generators can emulate.
type Fig9Row struct {
	K, C   float64
	X      []float64
	Values []float64
}

// Fig9 evaluates the PDF curves shown in the paper's Figure 9.
func Fig9() []Fig9Row {
	settings := []struct{ k, c float64 }{
		{1, 10}, {1.5, 10}, {2, 10}, {3, 10}, {5, 10}, {2, 20},
	}
	xs := make([]float64, 41)
	for i := range xs {
		xs[i] = float64(i)
	}
	rows := make([]Fig9Row, len(settings))
	for si, s := range settings {
		vals := make([]float64, len(xs))
		for i, x := range xs {
			vals[i] = gen.WeibullPDF(x, s.c, s.k)
		}
		rows[si] = Fig9Row{K: s.k, C: s.c, X: xs, Values: vals}
	}
	return rows
}

// FormatFig9 renders the curves as sparklines plus peak locations.
func FormatFig9(rows []Fig9Row) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		peakX, peakV := 0.0, 0.0
		for j, v := range r.Values {
			if v > peakV {
				peakV, peakX = v, r.X[j]
			}
		}
		out[i] = []string{
			fmt.Sprintf("k=%g c=%g", r.K, r.C),
			fmt.Sprintf("%g", peakX),
			fmt.Sprintf("%.4f", peakV),
			spark(r.Values),
		}
	}
	return formatTable([]string{"setting", "peak x", "peak f(x)", "curve"}, out)
}

func spark(vals []float64) string {
	glyphs := []rune("▁▂▃▄▅▆▇█")
	maxV := 0.0
	for _, v := range vals {
		if v > maxV {
			maxV = v
		}
	}
	if maxV == 0 {
		return ""
	}
	out := make([]rune, len(vals))
	for i, v := range vals {
		g := int(v / maxV * float64(len(glyphs)-1))
		out[i] = glyphs[g]
	}
	return string(out)
}
