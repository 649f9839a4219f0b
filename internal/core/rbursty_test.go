package core

import (
	"math"
	"math/rand"
	"testing"

	"stburst/internal/geo"
)

func line(n int) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i), Y: 0}
	}
	return pts
}

func TestRBurstyEmpty(t *testing.T) {
	if got := RBursty(nil, ExactFinder()(nil)); got != nil {
		t.Fatalf("empty input: got %v", got)
	}
}

func TestRBurstyAllNegative(t *testing.T) {
	pts := line(4)
	w := []float64{-1, -2, -0.5, -3}
	if got := RBursty(w, ExactFinder()(pts)); got != nil {
		t.Fatalf("all-negative weights: got %v", got)
	}
}

func TestRBurstyMismatchPanics(t *testing.T) {
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 3, MaxY: 1}
	for name, finder := range map[string]RectFinder{"exact": ExactFinder(), "grid": GridFinder(bounds, 4)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s finder: expected panic on length mismatch", name)
				}
			}()
			RBursty([]float64{1}, finder(line(3)))
		}()
	}
}

func TestRBurstySingleRegion(t *testing.T) {
	pts := line(5)
	w := []float64{-1, 2, 3, -1, -1}
	rects := RBursty(w, ExactFinder()(pts))
	if len(rects) != 1 {
		t.Fatalf("got %d rects, want 1: %+v", len(rects), rects)
	}
	r := rects[0]
	if r.Score != 5 {
		t.Fatalf("score %v, want 5", r.Score)
	}
	if len(r.Streams) != 2 || r.Streams[0] != 1 || r.Streams[1] != 2 {
		t.Fatalf("streams %v, want [1 2]", r.Streams)
	}
}

func TestRBurstySplitsAcrossHeavyNegative(t *testing.T) {
	// Paper §4: the algorithm automatically determines whether to expand
	// one rectangle or report several smaller ones.
	pts := line(5)
	w := []float64{2, -10, 3, -10, 1}
	rects := RBursty(w, ExactFinder()(pts))
	if len(rects) != 3 {
		t.Fatalf("got %d rects, want 3: %+v", len(rects), rects)
	}
	// Extraction order is by descending score.
	if rects[0].Score != 3 || rects[1].Score != 2 || rects[2].Score != 1 {
		t.Fatalf("scores %v,%v,%v want 3,2,1", rects[0].Score, rects[1].Score, rects[2].Score)
	}
}

func TestRBurstyMergesAcrossLightNegative(t *testing.T) {
	pts := line(3)
	w := []float64{2, -0.5, 3}
	rects := RBursty(w, ExactFinder()(pts))
	if len(rects) != 1 {
		t.Fatalf("got %d rects, want 1 merged: %+v", len(rects), rects)
	}
	if math.Abs(rects[0].Score-4.5) > 1e-12 {
		t.Fatalf("score %v, want 4.5", rects[0].Score)
	}
	if len(rects[0].Streams) != 3 {
		t.Fatalf("streams %v, want all three", rects[0].Streams)
	}
}

// Invariants from Algorithm 1 and Definition 1: rectangles are
// stream-disjoint, every score is positive and equals the member-weight
// sum, and at most n rectangles are reported.
func TestRBurstyInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(30)
		pts := make([]geo.Point, n)
		w := make([]float64, n)
		for i := range pts {
			pts[i] = geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
			w[i] = rng.NormFloat64()
		}
		rects := RBursty(w, ExactFinder()(pts))
		if len(rects) > n {
			t.Fatalf("%d rects for %d streams", len(rects), n)
		}
		seen := make(map[int]bool)
		for _, r := range rects {
			if r.Score <= 0 {
				t.Fatalf("non-positive rect score %v", r.Score)
			}
			var sum float64
			for _, x := range r.Streams {
				if seen[x] {
					t.Fatalf("stream %d in two rectangles", x)
				}
				seen[x] = true
				sum += w[x]
			}
			if math.Abs(sum-r.Score) > 1e-9 {
				t.Fatalf("score %v != member sum %v", r.Score, sum)
			}
			for _, x := range r.Streams {
				if !r.Rect.Contains(pts[x]) {
					t.Fatalf("member %d outside reported rect", x)
				}
			}
		}
	}
}

// The union of reported rectangles captures every positive stream that is
// not dominated by neighbours: in a configuration of isolated positives
// (far apart), every positive stream must be reported.
func TestRBurstyIsolatedPositivesAllReported(t *testing.T) {
	pts := []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 0, Y: 100}, {X: 100, Y: 100}}
	w := []float64{1, 2, 3, 4}
	rects := RBursty(w, ExactFinder()(pts))
	covered := 0
	for _, r := range rects {
		covered += len(r.Streams)
	}
	if covered != 4 {
		t.Fatalf("covered %d positives, want 4: %+v", covered, rects)
	}
}

func TestRBurstyGridFinder(t *testing.T) {
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	pts := []geo.Point{{X: 10, Y: 10}, {X: 12, Y: 11}, {X: 50, Y: 50}, {X: 90, Y: 90}}
	w := []float64{2, 3, -6, 4}
	rects := RBursty(w, GridFinder(bounds, 10)(pts))
	if len(rects) != 2 {
		t.Fatalf("got %d rects, want 2: %+v", len(rects), rects)
	}
	if rects[0].Score != 5 || rects[1].Score != 4 {
		t.Fatalf("scores %v, %v; want 5, 4", rects[0].Score, rects[1].Score)
	}
	for _, r := range rects {
		for _, x := range r.Streams {
			if x == 2 {
				t.Fatal("negative stream 2 must not be a member")
			}
		}
	}
}

func TestRBurstyGridBlockedCellsNotReused(t *testing.T) {
	// After reporting a cell, planting -Inf must prevent any later
	// rectangle from spanning it.
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 30, MaxY: 30}
	pts := []geo.Point{{X: 5, Y: 5}, {X: 15, Y: 5}, {X: 25, Y: 5}}
	w := []float64{1, -5, 10}
	rects := RBursty(w, GridFinder(bounds, 3)(pts))
	if len(rects) != 2 {
		t.Fatalf("got %d rects, want 2: %+v", len(rects), rects)
	}
	if rects[0].Score != 10 || rects[1].Score != 1 {
		t.Fatalf("scores %v, %v; want 10, 1", rects[0].Score, rects[1].Score)
	}
	seen := map[int]bool{}
	for _, r := range rects {
		for _, x := range r.Streams {
			if seen[x] {
				t.Fatalf("stream %d reported twice", x)
			}
			seen[x] = true
		}
	}
	if seen[1] {
		t.Fatal("negative stream 1 should never be reported alone")
	}
}
