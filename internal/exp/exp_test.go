package exp

import (
	"strings"
	"sync"
	"testing"

	"stburst/internal/gen"
)

var (
	labOnce sync.Once
	testLab *Lab
	labErr  error
)

// lab builds one small shared corpus for all experiment tests.
func lab(t *testing.T) *Lab {
	t.Helper()
	if testing.Short() {
		t.Skip("corpus experiments skipped in -short mode")
	}
	labOnce.Do(func() {
		testLab, labErr = NewLabPar(gen.TopixConfig{Seed: 7, WeeklyArticles: 2, Vocab: 2500}, 0)
	})
	if labErr != nil {
		t.Fatal(labErr)
	}
	return testLab
}

func TestTable1Shapes(t *testing.T) {
	l := lab(t)
	rows := Table1(l)
	if len(rows) != 18 {
		t.Fatalf("got %d rows, want 18", len(rows))
	}
	var globalLocal, localLocal float64
	for _, r := range rows {
		if r.STLocal < 0 || r.STLocal > 181 || r.STComb < 0 || r.STComb > 181 {
			t.Fatalf("counts out of range: %+v", r)
		}
		// The MBR of the STComb pattern always contains at least its own
		// members.
		if r.STComb > 0 && r.MBR < r.STComb {
			t.Fatalf("MBR %d smaller than member count %d: %+v", r.MBR, r.STComb, r)
		}
		switch {
		case r.EventID <= 6:
			globalLocal += float64(r.STLocal)
		case r.EventID > 12:
			localLocal += float64(r.STLocal)
		}
	}
	// Paper shape: global events cover far more countries than local
	// events under STLocal.
	if globalLocal/6 < 3*(localLocal/6) {
		t.Fatalf("global tier STLocal mean %.1f not clearly above local tier %.1f",
			globalLocal/6, localLocal/6)
	}
	if s := FormatTable1(rows); !strings.Contains(s, "obama") {
		t.Fatal("FormatTable1 missing queries")
	}
}

func TestFig4Shapes(t *testing.T) {
	l := lab(t)
	rows := Fig4(l)
	if len(rows) != 18 {
		t.Fatalf("got %d rows, want 18", len(rows))
	}
	for _, r := range rows {
		if r.STLocal < 0 || r.STLocal > gen.Weeks || r.STComb < 0 || r.STComb > gen.Weeks {
			t.Fatalf("timeframe out of range: %+v", r)
		}
	}
	if s := FormatFig4(rows); !strings.Contains(s, "#") {
		t.Fatal("FormatFig4 missing bars")
	}
}

func TestTable2Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	rows := Table2(Table2Config{Streams: 40, Timeline: 80, Terms: 150, Patterns: 25, Seed: 9})
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	get := func(method, ds string) Table2Row {
		for _, r := range rows {
			if r.Method == method && r.Dataset == ds {
				return r
			}
		}
		t.Fatalf("missing row %s/%s", method, ds)
		return Table2Row{}
	}
	for _, ds := range []string{"distGen", "randGen"} {
		stl, stc, base := get("STLocal", ds), get("STComb", ds), get("Base", ds)
		// Paper shape: both proposed methods clearly beat Base on stream
		// retrieval.
		if stl.JaccardSim <= base.JaccardSim {
			t.Fatalf("%s: STLocal %.2f not above Base %.2f", ds, stl.JaccardSim, base.JaccardSim)
		}
		if stc.JaccardSim <= base.JaccardSim {
			t.Fatalf("%s: STComb %.2f not above Base %.2f", ds, stc.JaccardSim, base.JaccardSim)
		}
		// And Base's timeframe errors are much larger.
		if base.StartErr < stl.StartErr || base.EndErr < stl.EndErr {
			t.Fatalf("%s: Base errors (%.1f/%.1f) should exceed STLocal's (%.1f/%.1f)",
				ds, base.StartErr, base.EndErr, stl.StartErr, stl.EndErr)
		}
		for _, r := range []Table2Row{stl, stc, base} {
			if r.JaccardSim < 0 || r.JaccardSim > 1 {
				t.Fatalf("Jaccard out of range: %+v", r)
			}
		}
	}
	if s := FormatTable2(rows); !strings.Contains(s, "distGen") {
		t.Fatal("FormatTable2 missing dataset")
	}
}

func TestTable3Shapes(t *testing.T) {
	l := lab(t)
	res := Table3(l, 10)
	if len(res.Rows) != 18 {
		t.Fatalf("got %d rows, want 18", len(res.Rows))
	}
	for _, r := range res.Rows {
		for _, p := range []float64{r.TB, r.STLocal, r.STComb} {
			if p < 0 || p > 1 {
				t.Fatalf("precision out of range: %+v", r)
			}
		}
	}
	// Paper shape: all three engines achieve high precision, and the
	// spatially-aware STLocal does not lose to the temporal-only TB.
	if res.MeanSTLocal < 0.75 {
		t.Fatalf("STLocal mean precision %.2f too low", res.MeanSTLocal)
	}
	if res.MeanSTLocal+0.05 < res.MeanTB {
		t.Fatalf("STLocal (%.2f) should be at least on par with TB (%.2f)",
			res.MeanSTLocal, res.MeanTB)
	}
	// Global-tier queries are essentially perfect for all engines.
	for _, r := range res.Rows[:5] {
		if r.TB < 0.9 || r.STLocal < 0.9 || r.STComb < 0.9 {
			t.Fatalf("tier-1 query %q should be near-perfect: %+v", r.Query, r)
		}
	}
	for _, o := range []float64{res.OverlapCombTB, res.OverlapCombLocal, res.OverlapTBLocal} {
		if o < 0 || o > 1 {
			t.Fatalf("overlap out of range: %+v", res)
		}
	}
	if s := FormatTable3(res); !strings.Contains(s, "top-k overlap") {
		t.Fatal("FormatTable3 missing overlap line")
	}
}

func TestFig5Shapes(t *testing.T) {
	l := lab(t)
	res := Fig5(l)
	if res.NumTerms == 0 {
		t.Fatal("no terms measured")
	}
	var total float64
	for _, p := range res.Percent {
		if p < 0 || p > 100 {
			t.Fatalf("percentage out of range: %v", res.Percent)
		}
		total += p
	}
	if total < 99.9 || total > 100.1 {
		t.Fatalf("percentages sum to %v", total)
	}
	// Paper shape: the vast majority of terms average fewer than 2
	// bursty rectangles per timestamp (the paper reports 92% below 1 on
	// the denser real corpus).
	if res.Percent[0]+res.Percent[1] < 70 {
		t.Fatalf("only %.1f%% of terms below 2 rects/timestamp", res.Percent[0]+res.Percent[1])
	}
	if s := FormatFig5(res); !strings.Contains(s, "share of terms") {
		t.Fatal("FormatFig5 missing header")
	}
}

func TestFig6Shapes(t *testing.T) {
	l := lab(t)
	res := Fig6(l)
	if len(res.Open) != gen.Weeks || len(res.UpperBound) != gen.Weeks {
		t.Fatalf("series length %d/%d", len(res.Open), len(res.UpperBound))
	}
	// Paper shape: observed open windows are orders of magnitude below
	// the n·i worst case (the paper peaks around 10 with a bound of
	// thousands).
	last := gen.Weeks - 1
	if res.Peak*20 > float64(res.UpperBound[last]) {
		t.Fatalf("peak %.1f not far below bound %d", res.Peak, res.UpperBound[last])
	}
	if res.UpperBound[0] != 181 || res.UpperBound[1] != 362 {
		t.Fatalf("upper bound wrong: %v", res.UpperBound[:2])
	}
	if s := FormatFig6(res); !strings.Contains(s, "upper bound") {
		t.Fatal("FormatFig6 missing header")
	}
}

func TestFig7Shapes(t *testing.T) {
	l := lab(t)
	res := Fig7(l, 25)
	if len(res.Timestamps) != gen.Weeks {
		t.Fatalf("series length %d", len(res.Timestamps))
	}
	var localTotal, combTotal float64
	for i := range res.Timestamps {
		if res.STLocalMs[i] < 0 || res.STCombMs[i] < 0 {
			t.Fatalf("negative timing at %d", i)
		}
		localTotal += res.STLocalMs[i]
		combTotal += res.STCombMs[i]
	}
	// Paper shape (Fig. 7): the online STLocal's per-timestamp cost is
	// below STComb's recompute-everything cost overall.
	if localTotal >= combTotal {
		t.Fatalf("STLocal total %.3f ms not below STComb %.3f ms", localTotal, combTotal)
	}
	if s := FormatFig7(res); !strings.Contains(s, "STComb ms/term") {
		t.Fatal("FormatFig7 missing header")
	}
}

func TestFig8Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	rows := Fig8(Fig8Config{Sizes: []int{300, 600, 1200}, TermCount: 2, Timeline: 60, Seed: 11})
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.STLocalS <= 0 || r.STCombS <= 0 {
			t.Fatalf("non-positive timing: %+v", r)
		}
	}
	// Paper shape: near-linear scaling — 4x the streams should cost far
	// less than 16x the time (allowing wide margins for timer noise).
	if rows[2].STLocalS > rows[0].STLocalS*16 {
		t.Fatalf("STLocal scaling looks super-linear: %+v", rows)
	}
	if rows[2].STCombS > rows[0].STCombS*16 {
		t.Fatalf("STComb scaling looks super-linear: %+v", rows)
	}
	if s := FormatFig8(rows); !strings.Contains(s, "#streams") {
		t.Fatal("FormatFig8 missing header")
	}
}

func TestFig9Shapes(t *testing.T) {
	rows := Fig9()
	if len(rows) == 0 {
		t.Fatal("no curves")
	}
	for _, r := range rows {
		if len(r.X) != len(r.Values) {
			t.Fatalf("ragged curve: %+v", r)
		}
		for _, v := range r.Values {
			if v < 0 {
				t.Fatalf("negative density in %+v", r)
			}
		}
	}
	// k=1 decays monotonically; k=3 peaks in the interior.
	for _, r := range rows {
		switch {
		case r.K == 1:
			if r.Values[1] < r.Values[10] {
				t.Fatalf("k=1 should decay: %+v", r.Values[:12])
			}
		case r.K == 3:
			if r.Values[0] >= r.Values[8] {
				t.Fatalf("k=3 should rise to an interior peak: %+v", r.Values[:12])
			}
		}
	}
	if s := FormatFig9(rows); !strings.Contains(s, "peak x") {
		t.Fatal("FormatFig9 missing header")
	}
}

func TestFormatTable9(t *testing.T) {
	s := FormatTable9()
	for _, q := range []string{"obama", "zelaya", "earthquake"} {
		if !strings.Contains(s, q) {
			t.Fatalf("Table 9 missing %q", q)
		}
	}
}

func TestFormatTableAlignment(t *testing.T) {
	s := formatTable([]string{"a", "bb"}, [][]string{{"xxx", "y"}})
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines", len(lines))
	}
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("header and separator misaligned:\n%s", s)
	}
}
