package search

import (
	"context"
	"math"
	"testing"

	"stburst/internal/gen"
	"stburst/internal/index"
	"stburst/internal/stream"
)

// scanBurstiness is the linear scan the engine scored with before
// Coverage: the best score among the term's patterns that cover the
// document, by each kind's overlap notion, visited in stored order.
func scanBurstiness(ps *index.PatternSet, term, x, time int) (float64, bool) {
	best, found := math.Inf(-1), false
	consider := func(covers bool, score float64) {
		if covers && (!found || score > best) {
			best, found = score, true
		}
	}
	for _, w := range ps.Windows(term) {
		consider(w.Overlaps(x, time), w.Score)
	}
	for _, p := range ps.Combs(term) {
		consider(p.OverlapsMember(x, time), p.Score)
	}
	for _, iv := range ps.Temporal(term) {
		consider(time >= iv.Start && time <= iv.End, iv.Score)
	}
	return best, found
}

// scanBuild is the engine build of before Coverage, kept as the oracle:
// every term's posting list scored through scanBurstiness.
func scanBuild(col *stream.Collection, ps *index.PatternSet) *index.Index {
	var idx *index.Index
	return idx.With(ps.Terms(), func(term int) []index.Posting {
		var list []index.Posting
		for _, p := range col.Postings(term) {
			bs, ok := scanBurstiness(ps, term, int(p.Stream), int(p.Time))
			if !ok || bs <= 0 {
				continue
			}
			rel := math.Log(float64(p.Count) + 1)
			list = append(list, index.Posting{Doc: int(p.Doc), Score: rel * bs})
		}
		return list
	})
}

// TestBuildMatchesScanOnTopix mines every kind over the Topix corpus the
// benchmark calls xs and checks that the engine BuildFromPatterns paints
// holds, for every term of the vocabulary, the posting list the linear
// scan scores: the same documents in the same order, score bits equal.
func TestBuildMatchesScanOnTopix(t *testing.T) {
	if testing.Short() {
		t.Skip("mines the xs Topix corpus")
	}
	tp, err := gen.NewTopix(gen.TopixConfig{Seed: 1, WeeklyArticles: 0.2, Vocab: 150, TokensPerArticle: 8})
	if err != nil {
		t.Fatal(err)
	}
	col := tp.Col
	var prev []*index.PatternSet
	for _, k := range []index.PatternKind{index.KindRegional, index.KindCombinatorial, index.KindTemporal} {
		prev = append(prev, index.EmptySet(k))
	}
	sets, err := MineSets(context.Background(), col, col.Terms(), prev, &index.MineOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range sets {
		t.Run(ps.Kind().String(), func(t *testing.T) {
			if err := ps.Validate(col.NumStreams(), col.Length()); err != nil {
				t.Fatalf("mined set fails Validate: %v", err)
			}
			got, want := BuildFromPatterns(col, ps).Index(), scanBuild(col, ps)
			postings := 0
			for _, term := range col.Terms() {
				g, w := got.Postings(term), want.Postings(term)
				if len(g) != len(w) {
					t.Fatalf("term %d: %d postings, the scan scores %d", term, len(g), len(w))
				}
				for i := range g {
					if g[i].Doc != w[i].Doc || math.Float64bits(g[i].Score) != math.Float64bits(w[i].Score) {
						t.Fatalf("term %d posting %d: %+v, the scan scores %+v", term, i, g[i], w[i])
					}
				}
				postings += len(g)
			}
			if postings == 0 {
				t.Fatal("no postings compared")
			}
			t.Logf("%d postings over %d terms equal", postings, ps.NumTerms())
		})
	}
}
