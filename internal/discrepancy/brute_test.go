package discrepancy

import (
	"math"
	"sort"

	"stburst/internal/geo"
)

// MaxRectBrute solves the same problem by enumerating every rectangle
// bounded by point coordinates. It is a testing oracle; O(n⁵).
func MaxRectBrute(pts []WeightedPoint) (Rectangle, bool) {
	hasPos := false
	for _, p := range pts {
		if p.W > 0 {
			hasPos = true
			break
		}
	}
	if !hasPos {
		return Rectangle{}, false
	}
	if len(pts) > 40 {
		panic("discrepancy: MaxRectBrute input too large")
	}
	var xs, ys []float64
	for _, p := range pts {
		xs = append(xs, p.X)
		ys = append(ys, p.Y)
	}
	xs, ys = dedupSorted(xs), dedupSorted(ys)
	best := Rectangle{Score: math.Inf(-1)}
	found := false
	for i := 0; i < len(xs); i++ {
		for j := i; j < len(xs); j++ {
			for k := 0; k < len(ys); k++ {
				for l := k; l < len(ys); l++ {
					r := geo.Rect{MinX: xs[i], MaxX: xs[j], MinY: ys[k], MaxY: ys[l]}
					var score float64
					contained := false
					for _, p := range pts {
						if r.Contains(geo.Point{X: p.X, Y: p.Y}) {
							score += p.W
							contained = true
						}
					}
					if contained && score > best.Score {
						best = Rectangle{Rect: r, Score: score, Points: pointsInside(pts, r)}
						found = true
					}
				}
			}
		}
	}
	if !found {
		// All candidates contain a blocker; mirror MaxRect's behaviour.
		r := geo.Rect{MinX: xs[0], MaxX: xs[0], MinY: ys[0], MaxY: ys[0]}
		return Rectangle{Rect: r, Score: math.Inf(-1), Points: pointsInside(pts, r)}, true
	}
	return best, true
}

func dedupSorted(v []float64) []float64 {
	sort.Float64s(v)
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

func pointsInside(pts []WeightedPoint, r geo.Rect) []int {
	var idx []int
	for i, p := range pts {
		if r.Contains(geo.Point{X: p.X, Y: p.Y}) {
			idx = append(idx, i)
		}
	}
	return idx
}
