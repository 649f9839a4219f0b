package core

import (
	"math"

	"stburst/internal/discrepancy"
	"stburst/internal/geo"
)

// RectFinder makes the rectangle finder of one miner over its fixed
// stream locations, in the shape of expect.Factory: the miner's streams
// never move, only their weights change, so a finder may sort or index
// the points once and keep scratch between calls. The returned function
// plays the role of the Dobkin et al. module in Algorithm 1: given
// weights[x] for every point x, it returns the maximum-weight rectangle,
// whose Points index the weights. It must honour -Inf blocker weights —
// a reported rectangle containing a blocker must score -Inf — and the
// Points slice it returns is only valid until its next call.
//
// Concurrency: a RectFinder is shared by every miner of a corpus-wide
// batch run and must be safe to call concurrently (ExactFinder and
// GridFinder read only their arguments); each finder it returns is a
// private instance, and NewSTLocal makes one per miner.
type RectFinder func(points []geo.Point) func(weights []float64) (discrepancy.Rectangle, bool)

// ExactFinder returns the exact maximum-weight rectangle finder.
func ExactFinder() RectFinder {
	return func(points []geo.Point) func([]float64) (discrepancy.Rectangle, bool) {
		return discrepancy.NewFinder(points).MaxRect
	}
}

// GridFinder returns a rectangle finder that aggregates points into a
// grid×grid partition of bounds — the granularity mechanism of §2 of the
// paper, which keeps STLocal near-linear for very large stream counts.
func GridFinder(bounds geo.Rect, grid int) RectFinder {
	return func(points []geo.Point) func([]float64) (discrepancy.Rectangle, bool) {
		pts := make([]discrepancy.WeightedPoint, len(points))
		for i, p := range points {
			pts[i] = discrepancy.WeightedPoint{X: p.X, Y: p.Y}
		}
		return func(weights []float64) (discrepancy.Rectangle, bool) {
			if len(weights) != len(pts) {
				panic("core: grid finder weight count differs from point count")
			}
			for i, w := range weights {
				pts[i].W = w
			}
			return discrepancy.GridMaxRect(pts, bounds, grid)
		}
	}
}

// BurstyRect is one rectangle reported by R-Bursty: a region whose
// cumulative burstiness (r-score, Eq. 8) is positive at the current
// snapshot.
type BurstyRect struct {
	Rect    geo.Rect
	Streams []int // indices of streams inside Rect, ascending
	Score   float64
}

// RBursty implements Algorithm 1 of the paper: it repeatedly retrieves
// the maximum r-score rectangle, reports it, plants -Inf on every stream
// it contains (eliminating overlap among reported rectangles), and stops
// as soon as the best remaining rectangle scores at or below zero. The
// returned rectangles are stream-disjoint and all score positively; there
// are at most len(weights) of them.
//
// weights[x] is B(t, D_x[i]) for stream x at the current snapshot
// (Eq. 7); find is a finder a RectFinder made over the streams'
// locations. weights is not modified.
func RBursty(weights []float64, find func([]float64) (discrepancy.Rectangle, bool)) []BurstyRect {
	w := make([]float64, len(weights))
	copy(w, weights)
	var out []BurstyRect
	for iter := 0; iter <= len(w); iter++ {
		r, ok := find(w)
		if !ok || r.Score <= 0 || math.IsInf(r.Score, -1) {
			break
		}
		streams := make([]int, len(r.Points))
		copy(streams, r.Points)
		out = append(out, BurstyRect{Rect: r.Rect, Streams: streams, Score: r.Score})
		for _, i := range r.Points {
			w[i] = math.Inf(-1)
		}
	}
	return out
}
