package index

import (
	"context"
	"errors"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// lists gathers (term, doc, score) postings for With, which takes each
// term's list in ascending doc order.
type lists map[int][]Posting

func (l lists) add(term, doc int, score float64) {
	l[term] = append(l[term], Posting{Doc: doc, Score: score})
}

func (l lists) index() *Index {
	for _, list := range l {
		slices.SortFunc(list, func(a, b Posting) int { return a.Doc - b.Doc })
	}
	return (*Index)(nil).With(slices.Collect(maps.Keys(l)), func(term int) []Posting { return l[term] })
}

func buildSmall() *Index {
	l := lists{}
	// term 0: docs 1,2,3 with scores 5,3,1
	l.add(0, 1, 5)
	l.add(0, 2, 3)
	l.add(0, 3, 1)
	// term 1: docs 2,3,4 with scores 4,2,6
	l.add(1, 2, 4)
	l.add(1, 3, 2)
	l.add(1, 4, 6)
	return l.index()
}

func TestTopKSingleTerm(t *testing.T) {
	ix := buildSmall()
	got := ix.TopK([]int{0}, 2, MissingExcludes)
	if len(got) != 2 || got[0].Doc != 1 || got[1].Doc != 2 {
		t.Fatalf("got %+v, want docs 1,2", got)
	}
	if got[0].Score != 5 || got[1].Score != 3 {
		t.Fatalf("scores %+v", got)
	}
}

func TestTopKExcludesPartialMatches(t *testing.T) {
	ix := buildSmall()
	got := ix.TopK([]int{0, 1}, 10, MissingExcludes)
	// Only docs 2 (3+4=7) and 3 (1+2=3) appear in both lists.
	if len(got) != 2 || got[0].Doc != 2 || got[1].Doc != 3 {
		t.Fatalf("got %+v, want docs 2,3", got)
	}
	if got[0].Score != 7 || got[1].Score != 3 {
		t.Fatalf("scores %+v", got)
	}
}

func TestTopKUnknownTerm(t *testing.T) {
	ix := buildSmall()
	if got := ix.TopK([]int{99}, 5, MissingExcludes); got != nil {
		t.Fatalf("unknown term: got %v", got)
	}
	if got := ix.TopK([]int{0, 99}, 5, MissingExcludes); got != nil {
		t.Fatalf("conjunctive with unknown term: got %v", got)
	}
}

func TestTopKZeroK(t *testing.T) {
	ix := buildSmall()
	if got := ix.TopK([]int{0}, 0, MissingExcludes); got != nil {
		t.Fatalf("k=0: got %v", got)
	}
}

func TestPostingsSorted(t *testing.T) {
	l := lists{}
	l.add(0, 1, 2)
	l.add(0, 2, 8)
	l.add(0, 3, 5)
	ix := l.index()
	ps := ix.Postings(0)
	for i := 1; i < len(ps); i++ {
		if ps[i].Score > ps[i-1].Score {
			t.Fatalf("postings unsorted: %v", ps)
		}
	}
	if ix.Terms() != 1 {
		t.Fatalf("Terms = %d", ix.Terms())
	}
}

// TestTopKMatchesNaiveRandom: TA equals the exhaustive oracle on random
// indexes, including dense tie-heavy ones whose scores come from {1, 2, 3},
// where an unseen document can tie the threshold with a smaller doc ID.
func TestTopKMatchesNaiveRandom(t *testing.T) {
	for _, dist := range []struct {
		name  string
		iters int
		skip  int // a (term, doc) posting exists with probability 1/skip
		score func(*rand.Rand) float64
	}{
		{"sevenths", 200, 3, func(rng *rand.Rand) float64 { return float64(rng.Intn(100)) / 7 }},
		{"ties", 2000, 2, func(rng *rand.Rand) float64 { return float64(1 + rng.Intn(3)) }},
	} {
		rng := rand.New(rand.NewSource(91))
		for iter := 0; iter < dist.iters; iter++ {
			l := lists{}
			nTerms := 1 + rng.Intn(4)
			nDocs := 1 + rng.Intn(30)
			for term := 0; term < nTerms; term++ {
				for doc := 0; doc < nDocs; doc++ {
					if rng.Intn(dist.skip) == 0 {
						l.add(term, doc, dist.score(rng))
					}
				}
			}
			ix := l.index()
			var qterms []int
			for term := 0; term < nTerms; term++ {
				if rng.Intn(2) == 0 {
					qterms = append(qterms, term)
				}
			}
			if len(qterms) == 0 {
				qterms = []int{0}
			}
			k := 1 + rng.Intn(8)
			if got, want := ix.TopK(qterms, k, MissingExcludes), ix.TopKNaive(qterms, k); !slices.Equal(got, want) {
				t.Fatalf("%s iter %d: TA %v naive %v", dist.name, iter, got, want)
			}
		}
	}
}

func TestTopKEarlyTermination(t *testing.T) {
	// TA must not need to scan whole lists when k=1 and one doc dominates.
	l := lists{}
	for doc := 0; doc < 1000; doc++ {
		l.add(0, doc, float64(1000-doc))
		l.add(1, doc, float64(1000-doc))
	}
	ix := l.index()
	got := ix.TopK([]int{0, 1}, 1, MissingExcludes)
	if len(got) != 1 || got[0].Doc != 0 || got[0].Score != 2000 {
		t.Fatalf("got %+v", got)
	}
}

func BenchmarkTopKTA(b *testing.B) {
	rng := rand.New(rand.NewSource(92))
	l := lists{}
	for term := 0; term < 3; term++ {
		for doc := 0; doc < 50000; doc++ {
			if rng.Intn(4) == 0 {
				l.add(term, doc, rng.Float64()*100)
			}
		}
	}
	ix := l.index()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.TopK([]int{0, 1, 2}, 10, MissingExcludes)
	}
}

// TestCursorStopsAtShortestList: once the 6-posting list is read to its
// end every full match has been seen, so the cursor never walks the long
// list past depth 6 — whether one or all of the short list's documents
// qualify.
func TestCursorStopsAtShortestList(t *testing.T) {
	const long = 10000
	for _, shortDocs := range [][]int{
		{7, long + 1, long + 2, long + 3, long + 4, long + 5},
		{long + 1, 10, 20, 30, 40, 50},
	} {
		l := lists{}
		for i, doc := range shortDocs {
			l.add(0, doc, float64(i+1))
		}
		for doc := 0; doc < long; doc++ {
			l.add(1, doc, float64(doc%97))
		}
		ix := l.index()
		terms := []int{1, 0}
		c := ix.Cursor(terms)
		var got []Result
		for r, ok := c.Next(); ok; r, ok = c.Next() {
			got = append(got, r)
		}
		if c.depth > len(shortDocs) {
			t.Errorf("cursor read %d rows, past the %d-posting list", c.depth, len(shortDocs))
		}
		if want := ix.TopKNaive(terms, long); !slices.Equal(got, want) {
			t.Errorf("drain %v, naive %v", got, want)
		}
	}
}

// TestPageCancelled: a long pull observes a cancelled context, also when
// a filter rejects every hit, so that Page itself pulls once: Where must
// then stop the cursor early, not read all 5 000 postings.
func TestPageCancelled(t *testing.T) {
	l := lists{}
	for doc := 0; doc < 5000; doc++ {
		l.add(0, doc, float64(doc))
	}
	ix := l.index()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rejected := 0
	reject := func(int) bool { rejected++; return false }
	for name, next := range map[string]func() (Result, bool){
		"plain":     ix.Cursor([]int{0}).Next,
		"rejecting": ix.Cursor([]int{0}).Where(ctx, 0, reject),
	} {
		if _, _, err := Page(ctx, next, 0, 4000); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
	}
	if rejected >= 5000 {
		t.Errorf("the filter saw all %d hits of a cancelled pull", rejected)
	}
}

// TestWithSharesCleanSegments: With rebuilds only the listed terms —
// dropping one whose list is empty — shares every other term's postings
// with the prior index, and leaves the prior index as it was.
func TestWithSharesCleanSegments(t *testing.T) {
	prior := buildSmall()
	next := prior.With([]int{1, 2}, func(term int) []Posting {
		if term == 2 {
			return []Posting{{Doc: 3, Score: 1}, {Doc: 5, Score: 4}}
		}
		return nil
	})
	if next.Terms() != 2 || next.Postings(1) != nil || prior.Terms() != 2 || len(prior.Postings(1)) != 3 {
		t.Fatalf("terms: next %d (term 1 %v), prior %d", next.Terms(), next.Postings(1), prior.Terms())
	}
	if &next.Postings(0)[0] != &prior.Postings(0)[0] {
		t.Error("the clean term's postings were copied, not shared")
	}
	if want := []Posting{{Doc: 5, Score: 4}, {Doc: 3, Score: 1}}; !slices.Equal(next.Postings(2), want) {
		t.Errorf("term 2 postings %v, want %v", next.Postings(2), want)
	}
	if s, ok := next.Score(2, 3); !ok || s != 1 {
		t.Errorf("Score(2, 3) = %v, %v; want 1, true", s, ok)
	}
	if _, ok := next.Score(2, 4); ok {
		t.Error("Score(2, 4) found a document term 2 does not hold")
	}
}
