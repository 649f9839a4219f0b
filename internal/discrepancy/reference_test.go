package discrepancy

import (
	"math"
	"slices"
	"sort"
	"testing"

	"stburst/internal/geo"
)

// maxRectReference is the exact finder as it stood before Finder: no
// pruning, a sort of the positive coordinates and two binary searches
// per point on every call. FuzzMaxRect holds Finder to it bit for bit.
func maxRectReference(pts []WeightedPoint) (Rectangle, bool) {
	var xsPos, ysPos []float64
	for _, p := range pts {
		if p.W > 0 {
			xsPos = append(xsPos, p.X)
			ysPos = append(ysPos, p.Y)
		}
	}
	if len(xsPos) == 0 {
		return Rectangle{}, false
	}
	xs := dedupSorted(xsPos)
	ys := dedupSorted(ysPos)
	px, py := len(xs), len(ys)
	type placed struct {
		col, row       int
		colGap, rowGap bool
		w              float64
	}
	rowPts := make([][]placed, py)
	rowGapPts := make([][]placed, py)
	for _, p := range pts {
		col, colGap, okx := locate(xs, p.X)
		if !okx {
			continue
		}
		row, rowGap, oky := locate(ys, p.Y)
		if !oky {
			continue
		}
		pl := placed{col: col, row: row, colGap: colGap, rowGap: rowGap, w: p.W}
		if rowGap {
			rowGapPts[row] = append(rowGapPts[row], pl)
		} else {
			rowPts[row] = append(rowPts[row], pl)
		}
	}
	colW := make([]float64, px)
	gapW := make([]float64, max(px-1, 0))
	var (
		best               float64 = math.Inf(-1)
		bc1, bc2, br1, br2 int
		found              bool
	)
	add := func(list []placed) {
		for _, pl := range list {
			if pl.colGap {
				gapW[pl.col] += pl.w
			} else {
				colW[pl.col] += pl.w
			}
		}
	}
	for b := 0; b < py; b++ {
		clear(colW)
		clear(gapW)
		for t := b; t < py; t++ {
			add(rowPts[t])
			if t > b {
				add(rowGapPts[t-1])
			}
			cur := math.Inf(-1)
			start := 0
			for c := 0; c < px; c++ {
				w := colW[c]
				if c == 0 {
					cur = w
					start = 0
				} else {
					ext := cur + gapW[c-1] + w
					if w >= ext || math.IsInf(cur, -1) {
						cur = w
						start = c
					} else {
						cur = ext
					}
				}
				if cur > best {
					best = cur
					bc1, bc2, br1, br2 = start, c, b, t
					found = true
				}
			}
		}
	}
	if !found {
		r := geo.Rect{MinX: xs[0], MaxX: xs[0], MinY: ys[0], MaxY: ys[0]}
		return Rectangle{Rect: r, Score: math.Inf(-1), Points: pointsInside(pts, r)}, true
	}
	r := geo.Rect{MinX: xs[bc1], MaxX: xs[bc2], MinY: ys[br1], MaxY: ys[br2]}
	return Rectangle{Rect: r, Score: best, Points: pointsInside(pts, r)}, true
}

// locate returns the position of v relative to the sorted unique slice s:
// (i, false, true) when v == s[i]; (i, true, true) when s[i] < v < s[i+1];
// and ok=false when v lies outside [s[0], s[len-1]].
func locate(s []float64, v float64) (int, bool, bool) {
	i := sort.SearchFloat64s(s, v)
	if i < len(s) && s[i] == v {
		return i, false, true
	}
	if i == 0 || i == len(s) {
		return 0, false, false
	}
	return i - 1, true, true
}

// fuzzPoints decodes a fuzz input into a point set. The first byte picks
// the regime: bit 0 a coarse 6×6 lattice (many co-located points and
// shared rows and columns) or a 64×64 one; bit 1 small integer weights
// (ties everywhere) or sevenths (sums that round). Each point then takes
// three bytes: x, y and a weight, where 255 plants a -Inf blocker.
func fuzzPoints(data []byte) []WeightedPoint {
	if len(data) == 0 {
		return nil
	}
	mode, data := data[0], data[1:]
	lattice := byte(64)
	if mode&1 == 0 {
		lattice = 6
	}
	var pts []WeightedPoint
	for ; len(data) >= 3 && len(pts) < 200; data = data[3:] {
		p := WeightedPoint{X: float64(data[0] % lattice), Y: float64(data[1] % lattice)}
		switch {
		case data[2] == 255:
			p.W = math.Inf(-1)
		case mode&2 == 0:
			p.W = float64(int(data[2]%11) - 5)
		default:
			p.W = float64(int(data[2])-127) / 7
		}
		pts = append(pts, p)
	}
	return pts
}

// FuzzMaxRect holds Finder to maxRectReference bit for bit — rectangle,
// score bits and member points — over R-Bursty's own call pattern: one
// finder per point set, re-run after every reported rectangle's points
// are blocked. On at most 40 points the first score must also match the
// brute-force oracle whenever that is positive.
func FuzzMaxRect(f *testing.F) {
	f.Add([]byte{0, 0, 0, 9, 1, 0, 0, 2, 0, 8})
	f.Add([]byte{0, 1, 1, 10, 1, 1, 255, 1, 1, 10, 2, 2, 1, 3, 3, 9})
	f.Add([]byte{2, 3, 4, 200, 5, 5, 10, 3, 4, 250, 0, 0, 100, 7, 1, 180})
	f.Add([]byte{3, 10, 20, 200, 40, 50, 30, 12, 60, 220, 63, 2, 255, 33, 33, 140, 20, 25, 90})
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := fuzzPoints(data)
		points := make([]geo.Point, len(pts))
		w := make([]float64, len(pts))
		for i, p := range pts {
			points[i], w[i] = geo.Point{X: p.X, Y: p.Y}, p.W
		}
		if len(pts) <= 40 {
			// The optimum snaps to positive points only when it is
			// positive. Otherwise the brute optimum may hold none, and
			// the exact finder can only score lower — or 0, for a
			// rectangle spanning an empty cell of the positive lattice,
			// which the brute force (every rectangle holds a point)
			// never reports.
			got, ok1 := MaxRect(pts)
			want, ok2 := MaxRectBrute(pts)
			if ok1 != ok2 || ok1 && (got.Score > max(want.Score, 0)+1e-9 ||
				want.Score > 0 && got.Score != want.Score && math.Abs(got.Score-want.Score) > 1e-9) {
				t.Fatalf("pts %v: exact (%v, %v), brute (%v, %v)", pts, got.Score, ok1, want.Score, ok2)
			}
		}
		finder := NewFinder(points)
		for round := 0; round <= len(pts); round++ {
			got, ok1 := finder.MaxRect(w)
			want, ok2 := maxRectReference(pts)
			if ok1 != ok2 {
				t.Fatalf("round %d, pts %v: ok %v, reference %v", round, pts, ok1, ok2)
			}
			if !ok1 {
				return
			}
			if got.Rect != want.Rect || math.Float64bits(got.Score) != math.Float64bits(want.Score) || !slices.Equal(got.Points, want.Points) {
				t.Fatalf("round %d, pts %v:\nfinder    %v %v %v\nreference %v %v %v",
					round, pts, got.Rect, got.Score, got.Points, want.Rect, want.Score, want.Points)
			}
			if got.Score <= 0 || math.IsInf(got.Score, -1) {
				return
			}
			for _, i := range got.Points {
				w[i], pts[i].W = math.Inf(-1), math.Inf(-1)
			}
		}
	})
}
