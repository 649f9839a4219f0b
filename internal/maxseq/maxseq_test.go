package maxseq

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func segsEqual(a, b []Segment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Start != b[i].Start || a[i].End != b[i].End {
			return false
		}
		if math.Abs(a[i].Score-b[i].Score) > 1e-9 {
			return false
		}
	}
	return true
}

func TestMaximalsEmpty(t *testing.T) {
	if got := Maximals(nil); got != nil {
		t.Fatalf("Maximals(nil) = %v, want nil", got)
	}
	if got := Maximals([]float64{}); got != nil {
		t.Fatalf("Maximals(empty) = %v, want nil", got)
	}
}

func TestMaximalsAllNegative(t *testing.T) {
	if got := Maximals([]float64{-1, -2, -0.5}); got != nil {
		t.Fatalf("all-negative input should yield no segments, got %v", got)
	}
}

func TestMaximalsAllZero(t *testing.T) {
	if got := Maximals([]float64{0, 0, 0}); got != nil {
		t.Fatalf("all-zero input should yield no segments, got %v", got)
	}
}

func TestMaximalsSinglePositive(t *testing.T) {
	got := Maximals([]float64{3.5})
	want := []Segment{{Start: 0, End: 1, Score: 3.5}}
	if !segsEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMaximalsRuzzoTompaPaperExample(t *testing.T) {
	// Example from Ruzzo & Tompa (1999): the sequence
	// (4, -5, 3, -3, 1, 2, -2, 2, -2, 1, 5) has maximal segments
	// (4), (3), (1,2,-2,2,-2,1,5) with scores 4, 3, 7.
	scores := []float64{4, -5, 3, -3, 1, 2, -2, 2, -2, 1, 5}
	got := Maximals(scores)
	want := []Segment{
		{Start: 0, End: 1, Score: 4},
		{Start: 2, End: 3, Score: 3},
		{Start: 4, End: 11, Score: 7},
	}
	if !segsEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMaximalsMergesAcrossDip(t *testing.T) {
	// A small dip between two strong runs must be bridged.
	scores := []float64{5, -1, 5}
	got := Maximals(scores)
	want := []Segment{{Start: 0, End: 3, Score: 9}}
	if !segsEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMaximalsKeepsSeparatedRuns(t *testing.T) {
	// A deep dip must keep the runs apart.
	scores := []float64{5, -100, 5}
	got := Maximals(scores)
	want := []Segment{
		{Start: 0, End: 1, Score: 5},
		{Start: 2, End: 3, Score: 5},
	}
	if !segsEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMaximalsLeadingTrailingNegatives(t *testing.T) {
	scores := []float64{-2, 1, 1, -2}
	got := Maximals(scores)
	want := []Segment{{Start: 1, End: 3, Score: 2}}
	if !segsEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMaximalsMatchesBruteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		n := rng.Intn(14)
		scores := make([]float64, n)
		for i := range scores {
			// Small integer scores avoid ties from float noise while
			// still exercising zero and negative values.
			scores[i] = float64(rng.Intn(9) - 4)
		}
		got := Maximals(scores)
		want := MaximalsBrute(scores)
		if !segsEqual(got, want) {
			t.Fatalf("scores %v:\n got %v\nwant %v", scores, got, want)
		}
	}
}

func TestRuzzoTompaOnlineMatchesOffline(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 300; iter++ {
		n := rng.Intn(40)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = rng.NormFloat64()
		}
		var rt RuzzoTompa
		for _, s := range scores {
			rt.Add(s)
		}
		if !segsEqual(rt.Maximals(), Maximals(scores)) {
			t.Fatalf("online and offline disagree on %v", scores)
		}
	}
}

// Property: maximal segments are pairwise disjoint, ordered, positive-score,
// and within bounds.
func TestMaximalsInvariants(t *testing.T) {
	f := func(raw []int8) bool {
		scores := make([]float64, len(raw))
		for i, v := range raw {
			scores[i] = float64(v) / 4
		}
		segs := Maximals(scores)
		prevEnd := -1
		for _, s := range segs {
			if s.Start < 0 || s.End > len(scores) || s.Start >= s.End {
				return false
			}
			if s.Start < prevEnd {
				return false // overlap or out of order
			}
			if s.Score <= 0 {
				return false
			}
			var sum float64
			for i := s.Start; i < s.End; i++ {
				sum += scores[i]
			}
			if math.Abs(sum-s.Score) > 1e-6 {
				return false
			}
			prevEnd = s.End
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: every maximal segment begins and ends with a positive score.
func TestMaximalsBoundariesPositive(t *testing.T) {
	f := func(raw []int8) bool {
		scores := make([]float64, len(raw))
		for i, v := range raw {
			scores[i] = float64(v)
		}
		for _, s := range Maximals(scores) {
			if scores[s.Start] <= 0 || scores[s.End-1] <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestRuzzoTompaTotal(t *testing.T) {
	var rt RuzzoTompa
	rt.AddAll([]float64{1, -3, 0.5})
	if got, want := rt.Total(), -1.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Total = %v, want %v", got, want)
	}
	if got := rt.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
}

func TestSegmentLen(t *testing.T) {
	if got := (Segment{Start: 2, End: 7}).Len(); got != 5 {
		t.Fatalf("Len = %d, want 5", got)
	}
}

func BenchmarkMaximals(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	scores := make([]float64, 10000)
	for i := range scores {
		scores[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Maximals(scores)
	}
}
