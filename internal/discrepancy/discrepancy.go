// Package discrepancy finds maximum-weight axis-oriented rectangles over
// weighted planar point sets. It is the module the paper's R-Bursty
// algorithm (Algorithm 1) invokes to retrieve the single rectangle with
// the highest r-score, playing the role of the maximum bichromatic
// discrepancy algorithm of Dobkin, Gunopulos and Maass [5].
//
// Two implementations are provided:
//
//   - Finder: exact. It exploits the fact that some optimal rectangle has
//     all four sides passing through positive-weight points (shrinking a
//     side that touches no positive point can only drop non-positive
//     weight). The search is therefore restricted to coordinates of
//     positive points, with non-positive points (including the -Inf
//     "blockers" R-Bursty plants to forbid already-reported streams)
//     bucketed into the exact columns/rows and the gaps between them. A
//     Finder is made once per fixed point set, sorting it by X and by Y
//     in O(n log n); each call then places the n points in O(n) and, for
//     Px × Py distinct positive coordinates, scans every band of rows
//     with Kadane over the columns: O(n + Py·n + Py²·Px). Bands whose
//     positive weight cannot beat the best rectangle so far are skipped
//     without changing the result. MaxRect is the one-call form.
//
//   - GridMaxRect: aggregated. Points are summed into a G×G uniform grid
//     and the optimum over whole-cell rectangles is found in O(n + G³).
//     This is the granularity mechanism §2 of the paper endorses for very
//     large stream populations and is what keeps STLocal near-linear in
//     the 128000-stream scalability sweep (Fig. 8).
package discrepancy

import (
	"cmp"
	"math"
	"slices"

	"stburst/internal/geo"
)

// WeightedPoint is a stream location carrying a burstiness weight
// B(t, D_x[i]) (Eq. 7 of the paper). A weight of math.Inf(-1) marks a
// blocker: no reported rectangle may contain it.
type WeightedPoint struct {
	X, Y float64
	W    float64
}

// Rectangle is a maximum-weight rectangle result. Points holds the indices
// (into the input slice) of all points lying inside Rect.
type Rectangle struct {
	Rect   geo.Rect
	Score  float64
	Points []int
}

// Finder is the exact maximum-weight rectangle finder over a fixed point
// set. A miner's stream locations never change, only their weights, so
// the points are sorted by X and by Y once, in NewFinder; each MaxRect
// call then places every point with one linear merge and reuses the
// finder's buffers. A Finder is not safe for concurrent use: give each
// miner its own.
type Finder struct {
	pts      []geo.Point
	byX, byY []int // point indices in ascending X, Y order

	// Per-call scratch. Column and row keys encode a point's position
	// against the positive coordinates: 2i for exactly the i-th one,
	// 2i+1 for strictly between the i-th and the next, -1 outside.
	xs, ys   []float64
	col, row []int
	start    []int     // CSR offsets of the placed points, by row key
	placed   []cell    // placed points grouped by row key, index order
	mass     []float64 // positive weight per exact row
	suffix   []float64 // positive weight of exact rows b…
	acc      []float64 // band weight per column key
	inside   []int
}

type cell struct {
	col int
	w   float64
}

// slack covers the rounding of a sum over at most n finite weights
// (n·2⁻⁵³ ≪ 1e-9 for any feasible n): a band whose positive mass times
// 1+slack does not exceed the best score so far holds no rectangle whose
// computed sum could.
const slack = 1e-9

// NewFinder returns an exact finder over points. The finder keeps
// points; the caller must not modify them.
func NewFinder(points []geo.Point) *Finder {
	n := len(points)
	f := &Finder{
		pts: points,
		byX: make([]int, n), byY: make([]int, n),
		col: make([]int, n), row: make([]int, n),
	}
	for i := range f.byX {
		f.byX[i], f.byY[i] = i, i
	}
	// The order among equal coordinates is immaterial: it changes
	// neither the distinct coordinates nor any point's position.
	slices.SortFunc(f.byX, func(a, b int) int { return cmp.Compare(points[a].X, points[b].X) })
	slices.SortFunc(f.byY, func(a, b int) int { return cmp.Compare(points[a].Y, points[b].Y) })
	return f
}

// MaxRect returns the maximum-weight axis-oriented rectangle over the
// finder's points carrying weights w (w[i] belongs to point i). It
// reports false when no weight is positive, in which case no rectangle
// can score positively and R-Bursty terminates. The returned score can
// still be non-positive when blockers or negative points are
// unavoidable; callers decide what to do with it. Among equal-scoring
// rectangles the first one the bottom-row-major scan meets wins. The
// result's Points slice is reused by the next call.
//
// Pruning is exact: no rectangle in a band of rows sums above the band's
// positive weight, so a band (or every band from a bottom row up) whose
// positive weight cannot beat the best score is not scanned, and a
// rectangle holding a -Inf blocker never wins.
func (f *Finder) MaxRect(w []float64) (Rectangle, bool) {
	if len(w) != len(f.pts) {
		panic("discrepancy: Finder.MaxRect weight count differs from point count")
	}
	// The optimum snaps to the coordinates of positive points.
	f.xs = positiveCoords(f.xs[:0], f.byX, w, func(i int) float64 { return f.pts[i].X })
	if len(f.xs) == 0 {
		return Rectangle{}, false
	}
	f.ys = positiveCoords(f.ys[:0], f.byY, w, func(i int) float64 { return f.pts[i].Y })
	place(f.col, f.xs, f.byX, func(i int) float64 { return f.pts[i].X })
	place(f.row, f.ys, f.byY, func(i int) float64 { return f.pts[i].Y })
	px, py := len(f.xs), len(f.ys)

	// Bucket the points inside both ranges by row key, keeping index
	// order within a bucket: the band sums then add in the same order
	// whatever the geometry.
	rows := 2*py - 1
	f.start = resize(f.start, rows+2)
	f.mass = resize(f.mass, py)
	clear(f.start)
	clear(f.mass)
	for i, r := range f.row {
		if r >= 0 && f.col[i] >= 0 {
			f.start[r+2]++
			if w[i] > 0 { // a positive point sits on an exact row
				f.mass[r/2] += w[i]
			}
		}
	}
	for k := 1; k < len(f.start); k++ {
		f.start[k] += f.start[k-1]
	}
	// start[r+1] is now where bucket r begins; filling advances it to
	// where bucket r ends, leaving bucket r at start[r]:start[r+1].
	f.placed = resize(f.placed, f.start[rows+1])
	for i, r := range f.row {
		if r >= 0 && f.col[i] >= 0 {
			f.placed[f.start[r+1]] = cell{col: f.col[i], w: w[i]}
			f.start[r+1]++
		}
	}
	f.suffix = resize(f.suffix, py)
	var tail float64
	for b := py - 1; b >= 0; b-- {
		tail += f.mass[b]
		f.suffix[b] = tail
	}

	f.acc = resize(f.acc, 2*px-1)
	acc := f.acc
	add := func(r int) {
		for _, c := range f.placed[f.start[r]:f.start[r+1]] {
			acc[c.col] += c.w
		}
	}
	var (
		best               float64 = math.Inf(-1)
		bc1, bc2, br1, br2 int
		found              bool
	)
	for b := 0; b < py && f.suffix[b]*(1+slack) > best; b++ {
		clear(acc)
		var band float64
		for t := b; t < py; t++ {
			add(2 * t)
			if t > b {
				add(2*t - 1)
			}
			band += f.mass[t]
			if band*(1+slack) <= best {
				continue
			}
			// Kadane over columns, bridging gap weights between
			// consecutive columns.
			cur := math.Inf(-1)
			start := 0
			for c := 0; c < px; c++ {
				w := acc[2*c]
				if c == 0 {
					cur = w
					start = 0
				} else {
					ext := cur + acc[2*c-1] + w
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
		// Only possible when every candidate evaluates to -Inf (each
		// positive point shares its exact location with a blocker).
		// Report the degenerate rectangle of the first positive point.
		r := geo.Rect{MinX: f.xs[0], MaxX: f.xs[0], MinY: f.ys[0], MaxY: f.ys[0]}
		return Rectangle{Rect: r, Score: math.Inf(-1), Points: f.pointsInside(r)}, true
	}
	r := geo.Rect{MinX: f.xs[bc1], MaxX: f.xs[bc2], MinY: f.ys[br1], MaxY: f.ys[br2]}
	return Rectangle{Rect: r, Score: best, Points: f.pointsInside(r)}, true
}

// positiveCoords appends to dst the distinct coordinates of the points
// with positive weight, walking them in coordinate order.
func positiveCoords(dst []float64, order []int, w []float64, coord func(int) float64) []float64 {
	for _, i := range order {
		if w[i] > 0 {
			if v := coord(i); len(dst) == 0 || v != dst[len(dst)-1] {
				dst = append(dst, v)
			}
		}
	}
	return dst
}

// place sets key[i] to point i's position against the sorted distinct
// coordinates s — 2j when it equals s[j], 2j+1 when it lies strictly
// between s[j] and s[j+1], -1 outside [s[0], s[len-1]] — by merging the
// points, walked in coordinate order, with s.
func place(key []int, s []float64, order []int, coord func(int) float64) {
	j := 0
	for _, i := range order {
		v := coord(i)
		for j < len(s) && s[j] < v {
			j++
		}
		switch {
		case j < len(s) && s[j] == v:
			key[i] = 2 * j
		case j == 0 || j == len(s):
			key[i] = -1
		default:
			key[i] = 2*j - 1
		}
	}
}

func (f *Finder) pointsInside(r geo.Rect) []int {
	f.inside = f.inside[:0]
	for i, p := range f.pts {
		if r.Contains(p) {
			f.inside = append(f.inside, i)
		}
	}
	return f.inside
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// MaxRect returns the maximum-weight axis-oriented rectangle over pts:
// Finder.MaxRect over a finder made for this one call.
func MaxRect(pts []WeightedPoint) (Rectangle, bool) {
	points := make([]geo.Point, len(pts))
	w := make([]float64, len(pts))
	for i, p := range pts {
		points[i], w[i] = geo.Point{X: p.X, Y: p.Y}, p.W
	}
	return NewFinder(points).MaxRect(w)
}

// GridMaxRect aggregates pts into a grid×grid uniform partition of bounds
// and returns the maximum-weight rectangle made of whole cells. It reports
// false when no positive-weight point lies inside bounds. Cells containing
// a blocker aggregate to -Inf and are never bridged.
func GridMaxRect(pts []WeightedPoint, bounds geo.Rect, grid int) (Rectangle, bool) {
	if grid < 1 {
		grid = 1
	}
	w := bounds.Width()
	h := bounds.Height()
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}
	cell := make([][]float64, grid)
	for i := range cell {
		cell[i] = make([]float64, grid)
	}
	hasPos := false
	cellOf := func(p WeightedPoint) (int, int, bool) {
		if !bounds.Contains(geo.Point{X: p.X, Y: p.Y}) {
			return 0, 0, false
		}
		cx := int((p.X - bounds.MinX) / w * float64(grid))
		cy := int((p.Y - bounds.MinY) / h * float64(grid))
		if cx == grid {
			cx = grid - 1
		}
		if cy == grid {
			cy = grid - 1
		}
		return cx, cy, true
	}
	for _, p := range pts {
		cx, cy, ok := cellOf(p)
		if !ok {
			continue
		}
		cell[cy][cx] += p.W
		if p.W > 0 {
			hasPos = true
		}
	}
	if !hasPos {
		return Rectangle{}, false
	}
	// Row-pair + Kadane over the dense grid.
	col := make([]float64, grid)
	best := math.Inf(-1)
	var bc1, bc2, br1, br2 int
	for b := 0; b < grid; b++ {
		for i := range col {
			col[i] = 0
		}
		for t := b; t < grid; t++ {
			for c := 0; c < grid; c++ {
				col[c] += cell[t][c]
			}
			cur := math.Inf(-1)
			start := 0
			for c := 0; c < grid; c++ {
				if c == 0 || col[c] >= cur+col[c] || math.IsInf(cur, -1) {
					cur = col[c]
					start = c
				} else {
					cur += col[c]
				}
				if cur > best {
					best = cur
					bc1, bc2, br1, br2 = start, c, b, t
				}
			}
		}
	}
	r := geo.Rect{
		MinX: bounds.MinX + float64(bc1)*w/float64(grid),
		MaxX: bounds.MinX + float64(bc2+1)*w/float64(grid),
		MinY: bounds.MinY + float64(br1)*h/float64(grid),
		MaxY: bounds.MinY + float64(br2+1)*h/float64(grid),
	}
	// Collect member points by cell index so boundary semantics match the
	// aggregation (half-open cells), not the closed geo.Rect test.
	var idx []int
	for i, p := range pts {
		cx, cy, ok := cellOf(p)
		if !ok {
			continue
		}
		if bc1 <= cx && cx <= bc2 && br1 <= cy && cy <= br2 {
			idx = append(idx, i)
		}
	}
	return Rectangle{Rect: r, Score: best, Points: idx}, true
}
