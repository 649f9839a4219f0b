// Package maxseq implements algorithms over real-valued score sequences:
// the Ruzzo–Tompa linear-time algorithm for finding all maximal scoring
// subsequences, in an offline and an online variant.
//
// These are the 1-D engines underneath the paper's burst machinery:
// temporal bursty-interval extraction (Lappas et al., KDD'09) reduces to
// all-maximal-segments over discrepancy weights, and STLocal (Algorithm 2 of
// the VLDB'12 paper) maintains maximal spatiotemporal windows by feeding
// per-timestamp rectangle scores into the online variant (the paper's
// "GetMax", Appendix C).
package maxseq

// Segment is a contiguous subsequence [Start, End) of a score sequence
// together with the sum of the scores it spans.
type Segment struct {
	Start int     // inclusive index of the first score
	End   int     // exclusive index one past the last score
	Score float64 // sum of scores in [Start, End)
}

// Len returns the number of scores spanned by the segment.
func (s Segment) Len() int { return s.End - s.Start }

// candidate is an internal Ruzzo–Tompa candidate segment. L is the
// cumulative score strictly before the segment's leftmost element; R is the
// cumulative score through the segment's rightmost element (inclusive).
type candidate struct {
	start, end int
	l, r       float64
}

// RuzzoTompa incrementally maintains the set of maximal scoring
// subsequences of a growing sequence of real-valued scores, in amortized
// O(1) time per appended score. It is the online "GetMax" of the paper's
// Appendix C.
//
// The zero value is ready to use.
type RuzzoTompa struct {
	stack []candidate // candidate segments, in left-to-right order
	cum   float64     // cumulative sum of all scores appended so far
	n     int         // number of scores appended so far
}

// Add appends one score to the sequence and updates the candidate list.
func (rt *RuzzoTompa) Add(score float64) {
	idx := rt.n
	rt.n++
	rt.cum += score
	if score <= 0 {
		// Non-positive scores require no special handling; they only
		// advance the cumulative sum.
		return
	}
	k := candidate{start: idx, end: idx + 1, l: rt.cum - score, r: rt.cum}
	for {
		// Step 1: search the list from right to left for the maximum j
		// with l_j < l_k.
		j := len(rt.stack) - 1
		for j >= 0 && rt.stack[j].l >= k.l {
			j--
		}
		if j < 0 || rt.stack[j].r >= k.r {
			// Step 2a: no such j, or r_j >= r_k: append I_k.
			rt.stack = append(rt.stack, k)
			return
		}
		// Step 2b: extend I_k left to the leftmost score of I_j and
		// remove candidates j..end, then reconsider the merged segment.
		k.start = rt.stack[j].start
		k.l = rt.stack[j].l
		rt.stack = rt.stack[:j]
	}
}

// AddAll appends every score in order.
func (rt *RuzzoTompa) AddAll(scores []float64) {
	for _, s := range scores {
		rt.Add(s)
	}
}

// Len returns the number of scores appended so far.
func (rt *RuzzoTompa) Len() int { return rt.n }

// Total returns the sum of all scores appended so far. STLocal drops a
// region's sequence once Total goes negative (no maximal segment can have a
// suffix of the sequence as its prefix at that point).
func (rt *RuzzoTompa) Total() float64 { return rt.cum }

// Maximals returns the maximal scoring subsequences of the scores appended
// so far, in left-to-right order. Each has a strictly positive score and
// the segments are pairwise disjoint.
func (rt *RuzzoTompa) Maximals() []Segment {
	if len(rt.stack) == 0 {
		return nil
	}
	out := make([]Segment, len(rt.stack))
	for i, c := range rt.stack {
		out[i] = Segment{Start: c.start, End: c.end, Score: c.r - c.l}
	}
	return out
}

// Maximals returns all maximal scoring subsequences of scores in
// left-to-right order, in O(len(scores)) time. It is the offline
// Ruzzo–Tompa algorithm.
func Maximals(scores []float64) []Segment {
	var rt RuzzoTompa
	rt.AddAll(scores)
	return rt.Maximals()
}

// MaximalsBrute enumerates maximal scoring subsequences by the quadratic
// definition-driven method. It exists as a testing oracle for Maximals and
// the online RuzzoTompa; library code should not call it.
//
// A segment is maximal iff it is a positive-sum segment such that no
// proper super-segment or sub-segment relationship violates the Ruzzo–Tompa
// structural characterization: all its proper prefixes and suffixes have
// strictly positive sums relative to the whole (equivalently: minimal
// cumulative sum on the left boundary, maximal on the right), and it is not
// contained in any larger such segment.
func MaximalsBrute(scores []float64) []Segment {
	// Direct implementation of the Ruzzo–Tompa definition: a candidate
	// [i, j) is "blocking-free" iff every proper prefix and proper suffix
	// has positive score, i.e. the cumulative sum attains its strict
	// minimum over [i-1, j-1] at i-1 and its strict maximum over [i, j]
	// at j. Maximal segments are the blocking-free segments not properly
	// contained in another blocking-free segment.
	n := len(scores)
	cum := make([]float64, n+1)
	for i, s := range scores {
		cum[i+1] = cum[i] + s
	}
	free := func(i, j int) bool { // segment [i, j), 0 <= i < j <= n
		for k := i; k < j; k++ {
			if cum[k] <= cum[i] && k != i {
				return false
			}
		}
		for k := i + 1; k <= j; k++ {
			if cum[k] >= cum[j] && k != j {
				return false
			}
		}
		return cum[j] > cum[i]
	}
	var all []Segment
	for i := 0; i < n; i++ {
		for j := i + 1; j <= n; j++ {
			if free(i, j) {
				all = append(all, Segment{Start: i, End: j, Score: cum[j] - cum[i]})
			}
		}
	}
	var out []Segment
	for _, s := range all {
		contained := false
		for _, t := range all {
			if (t.Start < s.Start && t.End >= s.End) || (t.Start <= s.Start && t.End > s.End) {
				contained = true
				break
			}
		}
		if !contained {
			out = append(out, s)
		}
	}
	return out
}
