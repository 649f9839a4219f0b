// Package core implements the paper's primary contribution: simultaneous
// mining of spatial and temporal term burstiness. It provides the two
// pattern miners of the paper —
//
//   - STComb (§3): combinatorial spatiotemporal patterns, obtained by
//     extracting per-stream bursty temporal intervals and solving the
//     Highest-Scoring Subset problem as a maximum-weight clique on the
//     intervals' intersection graph (Proposition 1);
//
//   - STLocal (§4): regional spatiotemporal patterns, obtained by finding
//     non-overlapping bursty rectangles per snapshot (R-Bursty,
//     Algorithm 1) and maintaining maximal spatiotemporal windows online
//     (Algorithm 2);
//
// plus the online variant of STComb the paper lists as future work (§8).
package core

import (
	"sort"

	"stburst/internal/geo"
	"stburst/internal/interval"
)

// CombPattern is a combinatorial spatiotemporal pattern (§3): a set of
// streams that were simultaneously bursty during a common temporal
// segment, scored by the cumulative temporal burstiness of the member
// intervals (Eq. 3).
type CombPattern struct {
	Streams []int // indices of member streams, ascending
	Start   int   // first timestamp of the common segment (inclusive)
	End     int   // last timestamp of the common segment (inclusive)
	Score   float64
	// Intervals holds each member stream's contributing bursty interval,
	// sorted by stream index. The pattern's [Start, End] is their common
	// segment; the member intervals themselves are what the search
	// engine overlaps documents against (a document sits inside the
	// pattern through its own stream's burst).
	Intervals []interval.Interval
}

// ContainsStream reports whether stream x participates in the pattern.
func (p *CombPattern) ContainsStream(x int) bool {
	i := sort.SearchInts(p.Streams, x)
	return i < len(p.Streams) && p.Streams[i] == x
}

// Overlaps reports whether a document from stream x at timestamp i
// overlaps the pattern's common segment (both its stream and its
// timestamp are included, §5).
func (p *CombPattern) Overlaps(x, i int) bool {
	return i >= p.Start && i <= p.End && p.ContainsStream(x)
}

// OverlapsMember reports whether a document from stream x at timestamp i
// falls inside stream x's own contributing interval of the pattern. This
// is the overlap notion the search engine uses: the common segment of a
// large clique can shrink to a single timestamp, but a document belongs
// to the pattern through its stream's full bursty interval.
func (p *CombPattern) OverlapsMember(x, i int) bool {
	idx := sort.Search(len(p.Intervals), func(j int) bool { return p.Intervals[j].Stream >= x })
	for ; idx < len(p.Intervals) && p.Intervals[idx].Stream == x; idx++ {
		if p.Intervals[idx].Contains(i) {
			return true
		}
	}
	return false
}

// Window is a regional spatiotemporal pattern (§4): an axis-oriented
// rectangle on the map and a timeframe during which the rectangle was
// bursty, scored by the w-score of Eq. 9.
type Window struct {
	Rect    geo.Rect
	Streams []int // indices of streams inside Rect, ascending
	Start   int   // first timestamp (inclusive)
	End     int   // last timestamp (inclusive)
	Score   float64
}

// ContainsStream reports whether stream x lies inside the window's region.
func (w *Window) ContainsStream(x int) bool {
	i := sort.SearchInts(w.Streams, x)
	return i < len(w.Streams) && w.Streams[i] == x
}

// Overlaps reports whether a document from stream x at timestamp i
// overlaps the window (§5).
func (w *Window) Overlaps(x, i int) bool {
	return i >= w.Start && i <= w.End && w.ContainsStream(x)
}

// SubWindowOf reports whether w is completely contained in o in both
// space and time (Definition 2 of the paper).
func (w Window) SubWindowOf(o Window) bool {
	return o.Rect.ContainsRect(w.Rect) && o.Start <= w.Start && w.End <= o.End
}

// FilterMaximal drops every window that has a strict super-window with a
// strictly higher w-score (Definition 2: a window is maximal iff no
// super-window outscores it). The result is sorted by descending score,
// ties broken by earlier start and smaller region.
func FilterMaximal(windows []Window) []Window {
	out := make([]Window, 0, len(windows))
	for i := range windows {
		w := &windows[i]
		dominated := false
		for j := range windows {
			if o := &windows[j]; o.Score > w.Score && w.SubWindowOf(*o) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, *w)
		}
	}
	SortWindows(out)
	return out
}

// SortWindows orders windows by descending score, breaking ties by start
// time, end time, region extent and member streams. The tie-break is a
// total order over distinct windows: the sort is unstable, so anything
// less would let the caller's input order — and upstream, randomized map
// iteration — leak into results that must be byte-identical across runs.
func SortWindows(ws []Window) {
	sort.Slice(ws, func(i, j int) bool {
		a, b := ws[i], ws[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Rect.MinX != b.Rect.MinX {
			return a.Rect.MinX < b.Rect.MinX
		}
		if a.Rect.MinY != b.Rect.MinY {
			return a.Rect.MinY < b.Rect.MinY
		}
		if a.Rect.MaxX != b.Rect.MaxX {
			return a.Rect.MaxX < b.Rect.MaxX
		}
		if a.Rect.MaxY != b.Rect.MaxY {
			return a.Rect.MaxY < b.Rect.MaxY
		}
		for k := 0; k < len(a.Streams) && k < len(b.Streams); k++ {
			if a.Streams[k] != b.Streams[k] {
				return a.Streams[k] < b.Streams[k]
			}
		}
		return len(a.Streams) < len(b.Streams)
	})
}

// BestWindow returns the highest-scoring window under the SortWindows
// order and reports whether any window exists.
func BestWindow(ws []Window) (Window, bool) {
	if len(ws) == 0 {
		return Window{}, false
	}
	best := ws[0]
	for _, w := range ws[1:] {
		if w.Score > best.Score ||
			(w.Score == best.Score && (w.Start < best.Start ||
				(w.Start == best.Start && w.End < best.End))) {
			best = w
		}
	}
	return best, true
}
