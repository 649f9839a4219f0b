package interval

// MaxWeightClique returns the maximum-weight clique of the intersection
// graph of the given intervals, in O(n log n) time, and reports whether any
// clique exists (false only for an empty input). The clique is realized as
// the set of intervals covering the best stab point; among equal-weight
// stab points the earliest is chosen, so the result is deterministic.
// It is the first round of TopCliques, taken whatever its weight.
//
// Interval weights must be positive (temporal burstiness scores always
// are): with positive weights the heaviest clique is exactly the full set
// of intervals covering the heaviest stab point, which is what the sweep
// computes.
func MaxWeightClique(intervals []Interval) (Clique, bool) {
	if len(intervals) == 0 {
		return Clique{}, false
	}
	return newSweep(intervals).round(), true
}

// MaxWeightCliqueBrute solves the maximum-weight clique problem by
// exhaustive subset enumeration. It exists as a testing oracle for
// MaxWeightClique and must only be used with small inputs.
func MaxWeightCliqueBrute(intervals []Interval) (Clique, bool) {
	n := len(intervals)
	if n == 0 {
		return Clique{}, false
	}
	if n > 20 {
		panic("interval: MaxWeightCliqueBrute input too large")
	}
	var best Clique
	found := false
	for mask := 1; mask < 1<<n; mask++ {
		var set []Interval
		var w float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				set = append(set, intervals[i])
				w += intervals[i].Weight
			}
		}
		if !PairwiseIntersect(set) {
			continue
		}
		if !found || w > best.Weight {
			start, end, _ := CommonSegment(set)
			best = Clique{Members: set, Start: start, End: end, Weight: w}
			found = true
		}
	}
	return best, found
}

// PairwiseIntersect reports whether every pair of intervals in the set
// intersects. By Lemma 1 of the paper (the Helly property in one
// dimension), this holds iff the whole set has a non-empty common segment;
// both predicates are exposed so the equivalence can be verified.
func PairwiseIntersect(set []Interval) bool {
	for i := range set {
		for j := i + 1; j < len(set); j++ {
			if !Intersects(set[i], set[j]) {
				return false
			}
		}
	}
	return true
}
