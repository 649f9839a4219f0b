package expect

import (
	"math"
	"testing"
)

func feed(b Baseline, obs ...float64) []float64 {
	out := make([]float64, len(obs))
	for i, o := range obs {
		out[i] = b.Next(o)
	}
	return out
}

func approxEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			return false
		}
	}
	return true
}

func TestRunningMean(t *testing.T) {
	b := NewRunningMean()()
	got := feed(b, 4, 2, 6, 0)
	// First observation predicted perfectly; then 4, (4+2)/2=3, (4+2+6)/3=4.
	want := []float64{4, 4, 3, 4}
	if !approxEq(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestWindowMean(t *testing.T) {
	b := NewWindowMean(2)()
	got := feed(b, 4, 2, 6, 0)
	// Perfect first; then 4; (4+2)/2=3; (2+6)/2=4.
	want := []float64{4, 4, 3, 4}
	if !approxEq(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestWindowMeanWidth1(t *testing.T) {
	b := NewWindowMean(1)()
	got := feed(b, 5, 1, 9)
	want := []float64{5, 5, 1} // previous value each time
	if !approxEq(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestWindowMeanPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=0")
		}
	}()
	NewWindowMean(0)
}

func TestEWMA(t *testing.T) {
	b := NewEWMA(0.5)()
	got := feed(b, 4, 0, 8)
	// init 4; predict 4; state 0.5*0+0.5*4=2; predict 2.
	want := []float64{4, 4, 2}
	if !approxEq(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestEWMAPanicsOnBadAlpha(t *testing.T) {
	for _, alpha := range []float64{0, -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for alpha=%v", alpha)
				}
			}()
			NewEWMA(alpha)
		}()
	}
}

func TestSeasonal(t *testing.T) {
	b := NewSeasonal(3)()
	// Two full periods of a strongly seasonal series.
	got := feed(b, 10, 0, 0, 12, 0, 0, 14)
	// i=0..2: fallback running-mean. i=3: history[0]=10. i=4: history[1]=0.
	// i=6: mean(history[0], history[3]) = 11.
	if got[3] != 10 {
		t.Fatalf("i=3 expected 10, got %v", got[3])
	}
	if got[4] != 0 {
		t.Fatalf("i=4 expected 0, got %v", got[4])
	}
	if got[6] != 11 {
		t.Fatalf("i=6 expected 11, got %v", got[6])
	}
}

func TestSeasonalFallback(t *testing.T) {
	b := NewSeasonal(5)()
	got := feed(b, 4, 2)
	// No prior period yet: behaves like RunningMean.
	want := []float64{4, 4}
	if !approxEq(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestSeasonalPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for period=0")
		}
	}()
	NewSeasonal(0)
}

func TestWeightSurface(t *testing.T) {
	surface := [][]float64{
		{2, 2, 8}, // burst at the end
		{0, 0, 0},
	}
	w := WeightSurface(surface, NewRunningMean())
	// Stream 0: 2-2=0, 2-2=0, 8-2=6. Stream 1: all zero.
	want := [][]float64{{0, 0, 6}, {0, 0, 0}}
	for x := range want {
		if !approxEq(w[x], want[x]) {
			t.Fatalf("stream %d: got %v, want %v", x, w[x], want[x])
		}
	}
}

func TestWeightSurfaceIndependentBaselines(t *testing.T) {
	// Each stream must get its own baseline instance: identical series
	// must produce identical weights regardless of neighbours.
	surface := [][]float64{
		{1, 5},
		{1, 5},
		{100, 100},
	}
	w := WeightSurface(surface, NewRunningMean())
	if !approxEq(w[0], w[1]) {
		t.Fatalf("streams with identical series diverged: %v vs %v", w[0], w[1])
	}
	if w[2][1] != 0 {
		t.Fatalf("flat stream should have zero weight, got %v", w[2][1])
	}
}
