// Package interval provides closed integer intervals on the timeline,
// interval-graph utilities, and the maximum-weight clique algorithm for
// interval graphs (the paper's "maxClique", after Gupta, Lee and Leung,
// Networks 1982).
//
// STComb (§3 of the paper) reduces the Highest-Scoring Subset problem to
// the Maximum-Weight Clique problem on the intersection graph of the
// per-stream bursty intervals (Proposition 1). Because intervals on a line
// have the Helly property (Lemma 1), a clique is exactly a set of intervals
// sharing a common stab point, so the maximum-weight clique is found by a
// single sweep over interval endpoints in O(n log n). Extracting k cliques
// one after another sorts the endpoints once and sweeps the survivors
// each round: O(n log n + k·n).
package interval

import (
	"cmp"
	"slices"
)

// Interval is a closed interval [Start, End] of integer timestamps with an
// associated weight (the temporal burstiness score B_T of the interval) and
// the index of the document stream it was extracted from.
type Interval struct {
	Start  int     // first timestamp covered (inclusive)
	End    int     // last timestamp covered (inclusive)
	Weight float64 // burstiness score of the interval
	Stream int     // index of the originating document stream
}

// Len returns the number of timestamps covered by the interval.
func (iv Interval) Len() int { return iv.End - iv.Start + 1 }

// Contains reports whether timestamp t lies inside the closed interval.
func (iv Interval) Contains(t int) bool { return iv.Start <= t && t <= iv.End }

// Intersects reports whether two closed intervals share at least one
// timestamp.
func Intersects(a, b Interval) bool { return a.Start <= b.End && b.Start <= a.End }

// CommonSegment returns the intersection of all intervals in the set and
// reports whether it is non-empty. It returns (0, 0, false) for an empty
// set.
func CommonSegment(set []Interval) (start, end int, ok bool) {
	if len(set) == 0 {
		return 0, 0, false
	}
	start, end = set[0].Start, set[0].End
	for _, iv := range set[1:] {
		if iv.Start > start {
			start = iv.Start
		}
		if iv.End < end {
			end = iv.End
		}
	}
	return start, end, start <= end
}

// Clique is a set of mutually intersecting intervals: a combinatorial
// spatiotemporal pattern before stream metadata is attached. Start and End
// delimit the common segment of all members and Weight is the sum of the
// member weights (Eq. 3 of the paper).
type Clique struct {
	Members []Interval
	Start   int
	End     int
	Weight  float64
}

// TopCliques iteratively extracts the maximum-weight clique, each time
// removing the intervals of the reported clique, exactly as §3 of the
// paper obtains multiple non-overlapping combinatorial patterns.
// Extraction stops after k cliques (k <= 0 means no limit), when no
// intervals remain, or when the best remaining clique has non-positive
// weight. Each round sweeps the remaining intervals for their
// maximum-weight clique, but the sweep events are sorted once, so the
// whole extraction costs O(n log n + k·n) rather than a sort per round.
func TopCliques(intervals []Interval, k int) []Clique {
	if len(intervals) == 0 {
		return nil
	}
	s := newSweep(intervals)
	var out []Clique
	for len(s.events) > 0 && (k <= 0 || len(out) < k) {
		c := s.round()
		if c.Weight <= 0 {
			break
		}
		out = append(out, c)
	}
	return out
}

// sweep is the stab-point sweep over a shrinking interval set: the
// events of every interval sorted once, then filtered as rounds remove
// intervals.
type sweep struct {
	intervals []Interval
	events    []event // live intervals' events in sweep order
	dead      []bool  // by index into intervals
}

// event is one end of an interval: its weight enters at Start and leaves
// at End+1.
type event struct {
	pos   int
	delta float64
	iv    int // index into intervals
}

func newSweep(intervals []Interval) *sweep {
	events := make([]event, 0, 2*len(intervals))
	for i, iv := range intervals {
		events = append(events, event{iv.Start, iv.Weight, i}, event{iv.End + 1, -iv.Weight, i})
	}
	// At one position additions come before removals. Events with equal
	// position and delta may land in any order: they add the same value,
	// so every running sum below is the same float whatever the order,
	// and dropping a dead interval's events leaves the rest sorted.
	slices.SortFunc(events, func(a, b event) int {
		if a.pos != b.pos {
			return cmp.Compare(a.pos, b.pos)
		}
		return cmp.Compare(b.delta, a.delta)
	})
	return &sweep{intervals: intervals, events: events, dead: make([]bool, len(intervals))}
}

// round sweeps the live intervals, returns the clique at the heaviest
// stab point (the earliest among equals) and removes its members. There
// must be a live interval.
func (s *sweep) round() Clique {
	var (
		cur      float64
		best     float64
		bestPos  int
		haveBest bool
	)
	ev := s.events
	for k := 0; k < len(ev); {
		pos := ev[k].pos
		for k < len(ev) && ev[k].pos == pos {
			cur += ev[k].delta
			k++
		}
		if !haveBest || cur > best {
			best, bestPos, haveBest = cur, pos, true
		}
	}
	members := make([]Interval, 0, 4)
	for i, iv := range s.intervals {
		if !s.dead[i] && iv.Contains(bestPos) {
			members = append(members, iv)
			s.dead[i] = true
		}
	}
	kept := ev[:0]
	for _, e := range ev {
		if !s.dead[e.iv] {
			kept = append(kept, e)
		}
	}
	s.events = kept
	start, end, _ := CommonSegment(members)
	return Clique{Members: members, Start: start, End: end, Weight: best}
}
