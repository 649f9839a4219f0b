package interval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntervalLenContains(t *testing.T) {
	iv := Interval{Start: 3, End: 7}
	if got := iv.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5", got)
	}
	for _, tc := range []struct {
		t    int
		want bool
	}{{2, false}, {3, true}, {5, true}, {7, true}, {8, false}} {
		if got := iv.Contains(tc.t); got != tc.want {
			t.Errorf("Contains(%d) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestIntersects(t *testing.T) {
	cases := []struct {
		a, b Interval
		want bool
	}{
		{Interval{Start: 0, End: 2}, Interval{Start: 2, End: 4}, true},  // touch at 2
		{Interval{Start: 0, End: 2}, Interval{Start: 3, End: 4}, false}, // disjoint
		{Interval{Start: 0, End: 9}, Interval{Start: 3, End: 4}, true},  // nested
		{Interval{Start: 5, End: 5}, Interval{Start: 5, End: 5}, true},  // points
		{Interval{Start: 6, End: 8}, Interval{Start: 0, End: 5}, false}, // reversed order
	}
	for _, tc := range cases {
		if got := Intersects(tc.a, tc.b); got != tc.want {
			t.Errorf("Intersects(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if got := Intersects(tc.b, tc.a); got != tc.want {
			t.Errorf("Intersects(%v, %v) = %v, want %v (symmetry)", tc.b, tc.a, got, tc.want)
		}
	}
}

func TestCommonSegment(t *testing.T) {
	if _, _, ok := CommonSegment(nil); ok {
		t.Fatal("empty set should have no common segment")
	}
	set := []Interval{{Start: 0, End: 10}, {Start: 4, End: 8}, {Start: 5, End: 12}}
	s, e, ok := CommonSegment(set)
	if !ok || s != 5 || e != 8 {
		t.Fatalf("got (%d,%d,%v), want (5,8,true)", s, e, ok)
	}
	set = append(set, Interval{Start: 9, End: 9})
	if _, _, ok := CommonSegment(set); ok {
		t.Fatal("set with empty intersection should report ok=false")
	}
}

// Lemma 1 of the paper: pairwise intersection of 1-D intervals is
// equivalent to a non-empty common intersection (Helly property).
func TestLemma1HellyProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		set := make([]Interval, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			a, b := int(raw[i]%20), int(raw[i+1]%20)
			if a > b {
				a, b = b, a
			}
			set = append(set, Interval{Start: a, End: b, Weight: 1})
		}
		_, _, common := CommonSegment(set)
		return PairwiseIntersect(set) == common
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxWeightCliqueEmpty(t *testing.T) {
	if _, ok := MaxWeightClique(nil); ok {
		t.Fatal("empty input should report ok=false")
	}
}

func TestMaxWeightCliqueSingle(t *testing.T) {
	c, ok := MaxWeightClique([]Interval{{Start: 2, End: 5, Weight: 0.7, Stream: 3}})
	if !ok {
		t.Fatal("expected ok")
	}
	if len(c.Members) != 1 || c.Start != 2 || c.End != 5 || c.Weight != 0.7 {
		t.Fatalf("got %+v", c)
	}
}

func TestMaxWeightCliquePaperFigure2(t *testing.T) {
	// Figure 2 of the paper: streams D1..D4 with intervals
	//   D1: I1 (0.8), I2 (0.5)    D2: I3, I4    D3: I5, I7    D4: I6.
	// {I1, I3, I5, I6} overlap in a common segment and win with 2.1.
	intervals := []Interval{
		{Start: 2, End: 8, Weight: 0.8, Stream: 0},   // I1
		{Start: 12, End: 16, Weight: 0.5, Stream: 0}, // I2
		{Start: 3, End: 9, Weight: 0.4, Stream: 1},   // I3
		{Start: 13, End: 18, Weight: 0.6, Stream: 1}, // I4
		{Start: 4, End: 7, Weight: 0.5, Stream: 2},   // I5
		{Start: 5, End: 10, Weight: 0.4, Stream: 3},  // I6
		{Start: 14, End: 17, Weight: 0.3, Stream: 2}, // I7
	}
	c, ok := MaxWeightClique(intervals)
	if !ok {
		t.Fatal("expected ok")
	}
	if math.Abs(c.Weight-2.1) > 1e-9 {
		t.Fatalf("Weight = %v, want 2.1", c.Weight)
	}
	if len(c.Members) != 4 {
		t.Fatalf("clique size = %d, want 4", len(c.Members))
	}
	// Common segment is [max starts, min ends] = [5, 7] (t_x..t_y in the
	// figure).
	if c.Start != 5 || c.End != 7 {
		t.Fatalf("common segment [%d,%d], want [5,7]", c.Start, c.End)
	}
	streams := map[int]bool{}
	for _, m := range c.Members {
		streams[m.Stream] = true
	}
	if len(streams) != 4 {
		t.Fatalf("expected one interval per stream, got %v", streams)
	}
}

func TestMaxWeightCliqueMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 400; iter++ {
		n := 1 + rng.Intn(9)
		intervals := make([]Interval, n)
		for i := range intervals {
			a := rng.Intn(15)
			b := a + rng.Intn(6)
			intervals[i] = Interval{Start: a, End: b, Weight: float64(1+rng.Intn(10)) / 2, Stream: i}
		}
		got, ok1 := MaxWeightClique(intervals)
		want, ok2 := MaxWeightCliqueBrute(intervals)
		if ok1 != ok2 {
			t.Fatalf("ok mismatch: %v vs %v", ok1, ok2)
		}
		if math.Abs(got.Weight-want.Weight) > 1e-9 {
			t.Fatalf("intervals %v:\nsweep weight %v members %v\nbrute weight %v members %v",
				intervals, got.Weight, got.Members, want.Weight, want.Members)
		}
		// Clique validity: members must pairwise intersect (Lemma 1) and
		// share the common segment.
		if !PairwiseIntersect(got.Members) {
			t.Fatalf("sweep returned a non-clique: %v", got.Members)
		}
		if _, _, ok := CommonSegment(got.Members); !ok {
			t.Fatalf("sweep clique has empty common segment: %v", got.Members)
		}
	}
}

func TestMaxWeightCliqueDeterministicEarliestStab(t *testing.T) {
	// Two disjoint equal-weight cliques: the earlier one must win.
	intervals := []Interval{
		{Start: 0, End: 1, Weight: 1, Stream: 0},
		{Start: 10, End: 11, Weight: 1, Stream: 1},
	}
	c, _ := MaxWeightClique(intervals)
	if c.Start != 0 {
		t.Fatalf("expected earliest clique, got %+v", c)
	}
}

func TestTopCliquesNonOverlappingExtraction(t *testing.T) {
	intervals := []Interval{
		{Start: 0, End: 4, Weight: 1.0, Stream: 0},
		{Start: 1, End: 5, Weight: 0.9, Stream: 1},
		{Start: 10, End: 14, Weight: 0.8, Stream: 0},
		{Start: 11, End: 13, Weight: 0.7, Stream: 2},
	}
	cliques := TopCliques(intervals, 0)
	if len(cliques) != 2 {
		t.Fatalf("got %d cliques, want 2: %+v", len(cliques), cliques)
	}
	if math.Abs(cliques[0].Weight-1.9) > 1e-9 || math.Abs(cliques[1].Weight-1.5) > 1e-9 {
		t.Fatalf("weights %v, %v; want 1.9, 1.5", cliques[0].Weight, cliques[1].Weight)
	}
	// An interval may appear in at most one clique.
	seen := map[Interval]bool{}
	for _, c := range cliques {
		for _, m := range c.Members {
			if seen[m] {
				t.Fatalf("interval %v reported in two cliques", m)
			}
			seen[m] = true
		}
	}
}

func TestTopCliquesLimit(t *testing.T) {
	intervals := []Interval{
		{Start: 0, End: 0, Weight: 3, Stream: 0},
		{Start: 5, End: 5, Weight: 2, Stream: 0},
		{Start: 9, End: 9, Weight: 1, Stream: 0},
	}
	cliques := TopCliques(intervals, 2)
	if len(cliques) != 2 {
		t.Fatalf("got %d cliques, want 2", len(cliques))
	}
	if cliques[0].Weight != 3 || cliques[1].Weight != 2 {
		t.Fatalf("cliques extracted out of weight order: %+v", cliques)
	}
}

func TestTopCliquesEmptyAndExhaustion(t *testing.T) {
	if got := TopCliques(nil, 5); got != nil {
		t.Fatalf("TopCliques(nil) = %v, want nil", got)
	}
	// Exhausts all intervals before hitting the limit.
	intervals := []Interval{{Start: 0, End: 2, Weight: 1, Stream: 0}}
	if got := TopCliques(intervals, 10); len(got) != 1 {
		t.Fatalf("got %d cliques, want 1", len(got))
	}
}

func TestTopCliquesDuplicateIntervals(t *testing.T) {
	// Identical intervals (same struct value) from different iterations
	// must be removed one at a time, not all at once.
	intervals := []Interval{
		{Start: 0, End: 2, Weight: 1, Stream: 0},
		{Start: 0, End: 2, Weight: 1, Stream: 0},
	}
	cliques := TopCliques(intervals, 0)
	if len(cliques) != 1 {
		t.Fatalf("got %d cliques, want 1 (both duplicates in one clique)", len(cliques))
	}
	if len(cliques[0].Members) != 2 {
		t.Fatalf("clique should contain both duplicates, got %d members", len(cliques[0].Members))
	}
}

// Property: greedy iterative extraction yields cliques with non-increasing
// weights, and no two cliques share an interval occurrence.
func TestTopCliquesInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 200; iter++ {
		n := rng.Intn(14)
		intervals := make([]Interval, n)
		for i := range intervals {
			a := rng.Intn(20)
			intervals[i] = Interval{Start: a, End: a + rng.Intn(5), Weight: float64(1+rng.Intn(8)) / 4, Stream: rng.Intn(4)}
		}
		cliques := TopCliques(intervals, 0)
		total := 0
		prev := math.Inf(1)
		for _, c := range cliques {
			if c.Weight > prev+1e-9 {
				t.Fatalf("clique weights increased: %v", cliques)
			}
			prev = c.Weight
			if c.Weight <= 0 {
				t.Fatalf("non-positive clique reported: %+v", c)
			}
			if !PairwiseIntersect(c.Members) {
				t.Fatalf("non-clique reported: %+v", c)
			}
			total += len(c.Members)
		}
		if total > n {
			t.Fatalf("cliques use %d interval slots but only %d exist", total, n)
		}
	}
}

func BenchmarkMaxWeightClique(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	intervals := make([]Interval, 2000)
	for i := range intervals {
		a := rng.Intn(10000)
		intervals[i] = Interval{Start: a, End: a + rng.Intn(100), Weight: rng.Float64(), Stream: i}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxWeightClique(intervals)
	}
}

// BenchmarkTopCliques extracts every positive clique from the interval
// graph STComb builds on a 181-stream, 48-week corpus: three bursty
// intervals per stream, up to eight weeks long.
func BenchmarkTopCliques(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	var intervals []Interval
	for x := 0; x < 181; x++ {
		for j := 0; j < 3; j++ {
			a := rng.Intn(48)
			intervals = append(intervals, Interval{Start: a, End: min(a+rng.Intn(8), 47), Weight: rng.Float64(), Stream: x})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopCliques(intervals, 0)
	}
}
