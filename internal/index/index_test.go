package index

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

func buildSmall() *Index {
	ix := New()
	// term 0: docs 1,2,3 with scores 5,3,1
	ix.Add(0, 1, 5)
	ix.Add(0, 2, 3)
	ix.Add(0, 3, 1)
	// term 1: docs 2,3,4 with scores 4,2,6
	ix.Add(1, 2, 4)
	ix.Add(1, 3, 2)
	ix.Add(1, 4, 6)
	ix.Finalize()
	return ix
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

func TestTopKPanicsBeforeFinalize(t *testing.T) {
	ix := New()
	ix.Add(0, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ix.TopK([]int{0}, 1, MissingExcludes)
}

func TestAddPanicsAfterFinalize(t *testing.T) {
	ix := New()
	ix.Finalize()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ix.Add(0, 1, 1)
}

func TestAddOverwrites(t *testing.T) {
	ix := New()
	ix.Add(0, 7, 1)
	ix.Add(0, 7, 9)
	ix.Finalize()
	if s, ok := ix.Score(0, 7); !ok || s != 9 {
		t.Fatalf("Score = (%v,%v), want (9,true)", s, ok)
	}
	if len(ix.Postings(0)) != 1 {
		t.Fatalf("duplicate Add created extra posting: %v", ix.Postings(0))
	}
}

func TestPostingsSorted(t *testing.T) {
	ix := New()
	ix.Add(0, 1, 2)
	ix.Add(0, 2, 8)
	ix.Add(0, 3, 5)
	ix.Finalize()
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
			ix := New()
			nTerms := 1 + rng.Intn(4)
			nDocs := 1 + rng.Intn(30)
			for term := 0; term < nTerms; term++ {
				for doc := 0; doc < nDocs; doc++ {
					if rng.Intn(dist.skip) == 0 {
						ix.Add(term, doc, dist.score(rng))
					}
				}
			}
			ix.Finalize()
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
	ix := New()
	for doc := 0; doc < 1000; doc++ {
		ix.Add(0, doc, float64(1000-doc))
		ix.Add(1, doc, float64(1000-doc))
	}
	ix.Finalize()
	got := ix.TopK([]int{0, 1}, 1, MissingExcludes)
	if len(got) != 1 || got[0].Doc != 0 || got[0].Score != 2000 {
		t.Fatalf("got %+v", got)
	}
}

func BenchmarkTopKTA(b *testing.B) {
	rng := rand.New(rand.NewSource(92))
	ix := New()
	for term := 0; term < 3; term++ {
		for doc := 0; doc < 50000; doc++ {
			if rng.Intn(4) == 0 {
				ix.Add(term, doc, rng.Float64()*100)
			}
		}
	}
	ix.Finalize()
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
		ix := New()
		for i, doc := range shortDocs {
			ix.Add(0, doc, float64(i+1))
		}
		for doc := 0; doc < long; doc++ {
			ix.Add(1, doc, float64(doc%97))
		}
		ix.Finalize()
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
	ix := New()
	for doc := 0; doc < 5000; doc++ {
		ix.Add(0, doc, float64(doc))
	}
	ix.Finalize()
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
