package index

import "slices"

// TopKNaive answers the same query by exhaustively scoring every document
// of the first term's list. It is the testing oracle for Cursor.
func (ix *Index) TopKNaive(terms []int, k int) []Result {
	if k <= 0 || len(terms) == 0 {
		return nil
	}
	var out []Result
	for _, p := range ix.Postings(terms[0]) {
		var sum float64
		ok := true
		for _, t := range terms {
			s, present := ix.Score(t, p.Doc)
			if !present {
				ok = false
				break
			}
			sum += s
		}
		if ok {
			out = append(out, Result{Doc: p.Doc, Score: sum})
		}
	}
	slices.SortFunc(out, rankCmp)
	if len(out) > k {
		out = out[:k]
	}
	return out
}
