package maxseq

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
