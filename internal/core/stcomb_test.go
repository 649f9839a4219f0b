package core

import (
	"math"
	"math/rand"
	"testing"

	"stburst/internal/burst"
)

// quiet returns a flat background series of the given length.
func quiet(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// withBurst returns a flat series with a strong burst over [a, b].
func withBurst(n, a, b int, height float64) []float64 {
	s := quiet(n)
	for i := a; i <= b; i++ {
		s[i] = height
	}
	return s
}

func TestSTCombEmpty(t *testing.T) {
	if got := STComb(nil, STCombOptions{}); got != nil {
		t.Fatalf("empty surface: got %v", got)
	}
	if got := STComb([][]float64{{0, 0}, {0, 0}}, STCombOptions{}); got != nil {
		t.Fatalf("zero surface: got %v", got)
	}
}

func TestSTCombSingleSharedBurst(t *testing.T) {
	// Three streams bursting over overlapping windows, one quiet stream.
	surface := [][]float64{
		withBurst(20, 5, 9, 30),
		withBurst(20, 6, 10, 30),
		withBurst(20, 5, 8, 30),
		quiet(20),
	}
	pats := STComb(surface, STCombOptions{})
	if len(pats) == 0 {
		t.Fatal("expected at least one pattern")
	}
	top := pats[0]
	if len(top.Streams) != 3 {
		t.Fatalf("top pattern streams %v, want the three bursting streams", top.Streams)
	}
	for _, x := range top.Streams {
		if x == 3 {
			t.Fatal("quiet stream included in pattern")
		}
	}
	// Common segment of [5,9], [6,10], [5,8] is [6,8].
	if top.Start != 6 || top.End != 8 {
		t.Fatalf("timeframe [%d,%d], want [6,8]", top.Start, top.End)
	}
	// Score is the sum of the member intervals' B_T scores, each in (0,1].
	if top.Score <= 0 || top.Score > 3 {
		t.Fatalf("score %v outside (0,3]", top.Score)
	}
}

func TestSTCombDisjointBurstsMakeSeparatePatterns(t *testing.T) {
	surface := [][]float64{
		withBurst(30, 2, 4, 40),
		withBurst(30, 20, 22, 40),
	}
	pats := STComb(surface, STCombOptions{})
	if len(pats) != 2 {
		t.Fatalf("got %d patterns, want 2: %+v", len(pats), pats)
	}
	for _, p := range pats {
		if len(p.Streams) != 1 {
			t.Fatalf("pattern should contain a single stream: %+v", p)
		}
	}
}

func TestSTCombMaxPatterns(t *testing.T) {
	surface := [][]float64{
		withBurst(30, 2, 4, 40),
		withBurst(30, 20, 22, 40),
	}
	pats := STComb(surface, STCombOptions{MaxPatterns: 1})
	if len(pats) != 1 {
		t.Fatalf("got %d patterns, want 1", len(pats))
	}
}

func TestSTCombKleinbergDetector(t *testing.T) {
	surface := [][]float64{
		withBurst(20, 5, 9, 50),
		withBurst(20, 6, 10, 50),
	}
	pats := STComb(surface, STCombOptions{Detector: burst.Kleinberg{}})
	if len(pats) == 0 {
		t.Fatal("Kleinberg detector found no patterns")
	}
	if len(pats[0].Streams) != 2 {
		t.Fatalf("top pattern streams %v, want both", pats[0].Streams)
	}
}

func TestSTCombScoresDescendAndDisjointIntervals(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for iter := 0; iter < 50; iter++ {
		n := 2 + rng.Intn(6)
		L := 30
		surface := make([][]float64, n)
		for x := range surface {
			surface[x] = quiet(L)
			bursts := rng.Intn(3)
			for b := 0; b < bursts; b++ {
				a := rng.Intn(L - 3)
				for i := a; i <= a+2; i++ {
					surface[x][i] += float64(10 + rng.Intn(40))
				}
			}
		}
		pats := STComb(surface, STCombOptions{})
		prev := math.Inf(1)
		for _, p := range pats {
			if p.Score > prev+1e-9 {
				t.Fatalf("pattern scores increased: %+v", pats)
			}
			prev = p.Score
			if p.Start > p.End {
				t.Fatalf("inverted timeframe: %+v", p)
			}
			if len(p.Streams) == 0 {
				t.Fatalf("empty stream set: %+v", p)
			}
			seen := map[int]bool{}
			for _, x := range p.Streams {
				if x < 0 || x >= n {
					t.Fatalf("stream index out of range: %+v", p)
				}
				if seen[x] {
					t.Fatalf("duplicate stream in pattern (per-stream intervals must be disjoint): %+v", p)
				}
				seen[x] = true
			}
		}
	}
}

func TestCombPatternOverlaps(t *testing.T) {
	p := CombPattern{Streams: []int{1, 4, 7}, Start: 10, End: 20}
	if !p.Overlaps(4, 15) {
		t.Fatal("member stream within timeframe should overlap")
	}
	if p.Overlaps(4, 21) {
		t.Fatal("outside timeframe should not overlap")
	}
	if p.Overlaps(2, 15) {
		t.Fatal("non-member stream should not overlap")
	}
	if !p.ContainsStream(7) || p.ContainsStream(5) {
		t.Fatal("ContainsStream misbehaves")
	}
}

func TestOnlineSTCombMatchesBatchIntervals(t *testing.T) {
	// With a constant-zero baseline the online residuals equal the raw
	// frequencies, so per-stream maximal intervals are deterministic.
	o := NewOnlineSTCombOpts(2, OnlineSTCombOptions{})
	series := [][]float64{
		{1, 1, 9, 9, 1, 1},
		{1, 1, 1, 9, 9, 1},
	}
	for i := 0; i < 6; i++ {
		if err := o.Push([]float64{series[0][i], series[1][i]}); err != nil {
			t.Fatal(err)
		}
	}
	if o.Timestamps() != 6 {
		t.Fatalf("Timestamps = %d, want 6", o.Timestamps())
	}
	pats := o.Patterns(0)
	if len(pats) == 0 {
		t.Fatal("no online patterns found")
	}
	top := pats[0]
	if len(top.Streams) != 2 {
		t.Fatalf("top online pattern streams %v, want both streams", top.Streams)
	}
	// Shared segment must include timestamp 3 where both burst.
	if top.Start > 3 || top.End < 3 {
		t.Fatalf("timeframe [%d,%d] should include 3", top.Start, top.End)
	}
}

func TestOnlineSTCombPushValidation(t *testing.T) {
	o := NewOnlineSTCombOpts(3, OnlineSTCombOptions{})
	if err := o.Push([]float64{1, 2}); err == nil {
		t.Fatal("short snapshot should error")
	}
}

func BenchmarkSTComb181x48(b *testing.B) {
	rng := rand.New(rand.NewSource(62))
	surface := make([][]float64, 181)
	for x := range surface {
		surface[x] = make([]float64, 48)
		for i := range surface[x] {
			surface[x][i] = rng.ExpFloat64()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		STComb(surface, STCombOptions{})
	}
}
