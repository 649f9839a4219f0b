package discrepancy

import (
	"math"
	"math/rand"
	"testing"

	"stburst/internal/geo"
)

func TestMaxRectNoPositive(t *testing.T) {
	pts := []WeightedPoint{{0, 0, -1}, {1, 1, 0}}
	if _, ok := MaxRect(pts); ok {
		t.Fatal("no positive points: want ok=false")
	}
	if _, ok := MaxRect(nil); ok {
		t.Fatal("empty input: want ok=false")
	}
}

func TestMaxRectSinglePoint(t *testing.T) {
	r, ok := MaxRect([]WeightedPoint{{3, 4, 2.5}})
	if !ok {
		t.Fatal("expected ok")
	}
	if r.Score != 2.5 {
		t.Fatalf("Score = %v, want 2.5", r.Score)
	}
	if len(r.Points) != 1 || r.Points[0] != 0 {
		t.Fatalf("Points = %v, want [0]", r.Points)
	}
	want := geo.Rect{MinX: 3, MinY: 4, MaxX: 3, MaxY: 4}
	if r.Rect != want {
		t.Fatalf("Rect = %v, want %v", r.Rect, want)
	}
}

func TestMaxRectExcludesHeavyNegative(t *testing.T) {
	// Two positive points separated by a heavily negative one: the
	// optimum takes one positive point only.
	pts := []WeightedPoint{
		{0, 0, 2},
		{1, 0, -10},
		{2, 0, 3},
	}
	r, ok := MaxRect(pts)
	if !ok {
		t.Fatal("expected ok")
	}
	if r.Score != 3 {
		t.Fatalf("Score = %v, want 3", r.Score)
	}
}

func TestMaxRectBridgesLightNegative(t *testing.T) {
	// A small negative between two positives is worth including.
	pts := []WeightedPoint{
		{0, 0, 2},
		{1, 0, -0.5},
		{2, 0, 3},
	}
	r, ok := MaxRect(pts)
	if !ok {
		t.Fatal("expected ok")
	}
	if math.Abs(r.Score-4.5) > 1e-12 {
		t.Fatalf("Score = %v, want 4.5", r.Score)
	}
	if len(r.Points) != 3 {
		t.Fatalf("Points = %v, want all three", r.Points)
	}
}

func TestMaxRectNegativeInGapRowAndColumn(t *testing.T) {
	// The negative point lies strictly between the two positives in both
	// axes; any rectangle containing both positives must include it.
	pts := []WeightedPoint{
		{0, 0, 2},
		{2, 2, 2},
		{1, 1, -1},
	}
	r, ok := MaxRect(pts)
	if !ok {
		t.Fatal("expected ok")
	}
	if math.Abs(r.Score-3) > 1e-12 {
		t.Fatalf("Score = %v, want 3 (2+2-1)", r.Score)
	}
}

func TestMaxRectBlockerForcesSplit(t *testing.T) {
	// A -Inf blocker between the positives forbids the joint rectangle.
	pts := []WeightedPoint{
		{0, 0, 2},
		{2, 0, 3},
		{1, 0, math.Inf(-1)},
	}
	r, ok := MaxRect(pts)
	if !ok {
		t.Fatal("expected ok")
	}
	if r.Score != 3 {
		t.Fatalf("Score = %v, want 3", r.Score)
	}
	for _, i := range r.Points {
		if math.IsInf(pts[i].W, -1) {
			t.Fatal("reported rectangle contains a blocker")
		}
	}
}

func TestMaxRectBlockerColocated(t *testing.T) {
	// Blocker exactly on the only positive point: every rectangle is
	// poisoned; the reported score must be -Inf so callers reject it.
	pts := []WeightedPoint{
		{1, 1, 2},
		{1, 1, math.Inf(-1)},
	}
	r, ok := MaxRect(pts)
	if !ok {
		t.Fatal("expected ok (positive point exists)")
	}
	if !math.IsInf(r.Score, -1) {
		t.Fatalf("Score = %v, want -Inf", r.Score)
	}
}

func TestMaxRectMatchesBruteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 600; iter++ {
		n := 1 + rng.Intn(12)
		pts := make([]WeightedPoint, n)
		for i := range pts {
			pts[i] = WeightedPoint{
				X: float64(rng.Intn(6)),
				Y: float64(rng.Intn(6)),
				W: float64(rng.Intn(11) - 5),
			}
			if rng.Intn(12) == 0 {
				pts[i].W = math.Inf(-1)
			}
		}
		got, ok1 := MaxRect(pts)
		want, ok2 := MaxRectBrute(pts)
		if ok1 != ok2 {
			t.Fatalf("ok mismatch on %v: %v vs %v", pts, ok1, ok2)
		}
		if !ok1 {
			continue
		}
		same := got.Score == want.Score ||
			(math.IsInf(got.Score, -1) && math.IsInf(want.Score, -1)) ||
			math.Abs(got.Score-want.Score) <= 1e-9
		if !same {
			t.Fatalf("pts %v:\nexact %v (rect %v)\nbrute %v (rect %v)",
				pts, got.Score, got.Rect, want.Score, want.Rect)
		}
	}
}

func TestMaxRectScoreEqualsMemberSum(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for iter := 0; iter < 300; iter++ {
		n := 1 + rng.Intn(20)
		pts := make([]WeightedPoint, n)
		for i := range pts {
			pts[i] = WeightedPoint{
				X: rng.Float64() * 10,
				Y: rng.Float64() * 10,
				W: rng.NormFloat64(),
			}
		}
		r, ok := MaxRect(pts)
		if !ok {
			continue
		}
		var sum float64
		for _, i := range r.Points {
			sum += pts[i].W
		}
		if math.Abs(sum-r.Score) > 1e-9 {
			t.Fatalf("score %v but members sum to %v (pts %v, rect %v)",
				r.Score, sum, pts, r.Rect)
		}
	}
}

func TestGridMaxRectBasic(t *testing.T) {
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	pts := []WeightedPoint{
		{1, 1, 5},
		{1.2, 1.1, 3},
		{9, 9, -2},
	}
	r, ok := GridMaxRect(pts, bounds, 5)
	if !ok {
		t.Fatal("expected ok")
	}
	if r.Score != 8 {
		t.Fatalf("Score = %v, want 8", r.Score)
	}
	if len(r.Points) != 2 {
		t.Fatalf("Points = %v, want the two positives", r.Points)
	}
}

func TestGridMaxRectNoPositive(t *testing.T) {
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	if _, ok := GridMaxRect([]WeightedPoint{{1, 1, -3}}, bounds, 4); ok {
		t.Fatal("want ok=false with no positive points")
	}
	// Positive point outside bounds does not count.
	if _, ok := GridMaxRect([]WeightedPoint{{11, 1, 3}}, bounds, 4); ok {
		t.Fatal("want ok=false when positives are out of bounds")
	}
}

func TestGridMaxRectBlockedCell(t *testing.T) {
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}
	pts := []WeightedPoint{
		{0.5, 0.5, 2},
		{2.5, 0.5, math.Inf(-1)}, // blocks the middle cell
		{3.5, 0.5, 3},
	}
	r, ok := GridMaxRect(pts, bounds, 4)
	if !ok {
		t.Fatal("expected ok")
	}
	if r.Score != 3 {
		t.Fatalf("Score = %v, want 3 (blocked cell must not be bridged)", r.Score)
	}
}

func TestGridMaxRectSingleCellDegenerate(t *testing.T) {
	// Zero-area bounds (all points identical) must not divide by zero.
	bounds := geo.Rect{MinX: 2, MinY: 2, MaxX: 2, MaxY: 2}
	r, ok := GridMaxRect([]WeightedPoint{{2, 2, 1.5}}, bounds, 3)
	if !ok || r.Score != 1.5 {
		t.Fatalf("got %+v ok=%v, want score 1.5", r, ok)
	}
}

func TestGridMaxRectMatchesExactWhenGridFine(t *testing.T) {
	// With integer coordinates and a fine grid, grid aggregation loses
	// nothing and must match the exact optimum.
	rng := rand.New(rand.NewSource(33))
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 8, MaxY: 8}
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(10)
		pts := make([]WeightedPoint, n)
		for i := range pts {
			pts[i] = WeightedPoint{
				X: float64(rng.Intn(8)) + 0.5,
				Y: float64(rng.Intn(8)) + 0.5,
				W: float64(rng.Intn(9) - 4),
			}
		}
		g, okG := GridMaxRect(pts, bounds, 8)
		e, okE := MaxRect(pts)
		if okG != okE {
			// GridMaxRect counts out-of-bounds positives differently;
			// our points are always in bounds, so this should not happen.
			t.Fatalf("ok mismatch: grid %v exact %v", okG, okE)
		}
		if !okG {
			continue
		}
		if g.Score <= 0 && e.Score <= 0 {
			// Both rejected by R-Bursty (Score <= 0); the grid variant may
			// report an empty zero-score rectangle where the exact variant
			// reports the least-bad point-anchored one. Equivalent.
			continue
		}
		if math.Abs(g.Score-e.Score) > 1e-9 {
			t.Fatalf("pts %v: grid %v exact %v", pts, g.Score, e.Score)
		}
	}
}

func TestLocate(t *testing.T) {
	s := []float64{1, 3, 5}
	cases := []struct {
		v       float64
		idx     int
		gap, ok bool
	}{
		{1, 0, false, true},
		{3, 1, false, true},
		{5, 2, false, true},
		{2, 0, true, true},
		{4, 1, true, true},
		{0.5, 0, false, false},
		{5.5, 0, false, false},
	}
	for _, tc := range cases {
		idx, gap, ok := locate(s, tc.v)
		if idx != tc.idx || gap != tc.gap || ok != tc.ok {
			t.Errorf("locate(%v) = (%d,%v,%v), want (%d,%v,%v)",
				tc.v, idx, gap, ok, tc.idx, tc.gap, tc.ok)
		}
	}
}

func BenchmarkMaxRectSparse(b *testing.B) {
	// 181 streams, ~8 positive: the Topix-like regime.
	rng := rand.New(rand.NewSource(34))
	pts := make([]WeightedPoint, 181)
	for i := range pts {
		w := -rng.Float64() * 0.1
		if i%23 == 0 {
			w = rng.Float64() * 5
		}
		pts[i] = WeightedPoint{X: rng.Float64() * 100, Y: rng.Float64() * 100, W: w}
	}
	benchMaxRect(b, pts)
}

func BenchmarkMaxRectDense(b *testing.B) {
	// 181 streams, all non-zero: the artificial-data regime.
	rng := rand.New(rand.NewSource(35))
	pts := make([]WeightedPoint, 181)
	for i := range pts {
		pts[i] = WeightedPoint{X: rng.Float64() * 100, Y: rng.Float64() * 100, W: rng.NormFloat64()}
	}
	benchMaxRect(b, pts)
}

// benchMaxRect times the one-call MaxRect, which builds a finder per
// call, and a Finder made once and called again per iteration, as
// R-Bursty calls its miner's finder.
func benchMaxRect(b *testing.B, pts []WeightedPoint) {
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MaxRect(pts)
		}
	})
	b.Run("reused", func(b *testing.B) {
		points := make([]geo.Point, len(pts))
		w := make([]float64, len(pts))
		for i, p := range pts {
			points[i], w[i] = geo.Point{X: p.X, Y: p.Y}, p.W
		}
		f := NewFinder(points)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.MaxRect(w)
		}
	})
}

func BenchmarkGridMaxRect128k(b *testing.B) {
	rng := rand.New(rand.NewSource(36))
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	pts := make([]WeightedPoint, 128000)
	for i := range pts {
		pts[i] = WeightedPoint{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, W: rng.NormFloat64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GridMaxRect(pts, bounds, 24)
	}
}
