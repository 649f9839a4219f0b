package index

import (
	"context"
	"slices"
	"sort"
)

// Posting is one document's entry in a term's posting list.
type Posting struct {
	Doc   int
	Score float64
}

// Result is one document in a top-k answer.
type Result struct {
	Doc   int
	Score float64
}

// MissingPolicy is the type of TopK's last parameter, kept because
// bench/ pins that signature. Its one value is the index's only query
// semantics.
type MissingPolicy int

// MissingExcludes drops documents that are absent from any query term's
// list — the strict reading of Eq. 10/11, where burstiness is -inf
// without a pattern overlap.
const MissingExcludes MissingPolicy = 0

// Index is an inverted index over per-term document scores.
type Index struct {
	postings  map[int][]Posting
	random    map[int]map[int]float64
	finalized bool
}

// New returns an empty index.
func New() *Index {
	return &Index{
		postings: make(map[int][]Posting),
		random:   make(map[int]map[int]float64),
	}
}

// Add records the score of doc for term. Scores must be non-negative:
// the Threshold Algorithm's early-termination bound relies on posting
// scores never increasing the aggregate of a document a list omits.
// Adding the same (term, doc) pair twice overwrites the previous score.
// Add must not be called after Finalize.
func (ix *Index) Add(term, doc int, score float64) {
	if ix.finalized {
		panic("index: Add after Finalize")
	}
	m, ok := ix.random[term]
	if !ok {
		m = make(map[int]float64)
		ix.random[term] = m
	}
	if _, dup := m[doc]; !dup {
		ix.postings[term] = append(ix.postings[term], Posting{Doc: doc})
	}
	m[doc] = score
}

// Finalize sorts every posting list by descending score (ties by doc ID)
// and freezes the index. It must be called before querying.
func (ix *Index) Finalize() {
	for term, list := range ix.postings {
		m := ix.random[term]
		for i := range list {
			list[i].Score = m[list[i].Doc]
		}
		sort.Slice(list, func(i, j int) bool { return ranksBefore(Result(list[i]), Result(list[j])) })
		ix.postings[term] = list
	}
	ix.finalized = true
}

// Terms returns the number of terms with at least one posting.
func (ix *Index) Terms() int { return len(ix.postings) }

// Postings returns the (finalized) posting list of a term; nil when the
// term is unknown.
func (ix *Index) Postings(term int) []Posting { return ix.postings[term] }

// Score returns the per-term score of doc and whether it is present.
func (ix *Index) Score(term, doc int) (float64, bool) {
	s, ok := ix.random[term][doc]
	return s, ok
}

// CandidateBound returns an upper bound on the number of distinct
// documents a query over terms can ever return: every hit must appear in
// each query term's posting list, so the shortest list bounds the result
// set (and a term with no postings zeroes it). The search layer uses it
// to answer pages offset past the last possible hit without opening a
// Cursor.
func (ix *Index) CandidateBound(terms []int) int {
	if len(terms) == 0 {
		return 0
	}
	bound := len(ix.postings[terms[0]])
	for _, t := range terms[1:] {
		if n := len(ix.postings[t]); n < bound {
			bound = n
		}
	}
	return bound
}

// Cursor is one resumable Threshold-Algorithm pass (Fagin, Lotem and
// Naor) over a query's posting lists: sorted access one row of every list
// at a time, random access to complete each newly seen document's
// aggregate, and each complete aggregate held until no unseen document
// can outrank it. Between calls it keeps its depth, seen-set and
// candidates, so a caller pulls exactly as many hits as it needs. A
// Cursor is not safe for concurrent use.
type Cursor struct {
	ix    *Index
	terms []int
	lists [][]Posting
	// end is the shortest list's length. Once a list is read to its end,
	// every document that can appear in all lists has been seen, so the
	// walk stops there and only the candidates drain.
	end   int
	depth int // rows read from every list
	seen  map[int]bool
	cands []Result // complete aggregates not yet returned, worst first
}

// Cursor opens a Threshold-Algorithm pass over terms. A document is a hit
// only when every term's list holds it, scored by the sum of its per-term
// scores; Next yields hits by descending score, ties by doc ID. It panics
// if the index was not finalized.
func (ix *Index) Cursor(terms []int) *Cursor {
	if !ix.finalized {
		panic("index: Cursor before Finalize")
	}
	c := &Cursor{ix: ix, terms: terms, end: ix.CandidateBound(terms), seen: make(map[int]bool)}
	for _, t := range terms {
		c.lists = append(c.lists, ix.postings[t])
	}
	return c
}

// Next returns the next hit in rank order, and false once none is left.
func (c *Cursor) Next() (Result, bool) {
	for {
		n := len(c.cands)
		if n > 0 && (c.depth == c.end || c.settled(c.cands[n-1])) {
			best := c.cands[n-1]
			c.cands = c.cands[:n-1]
			return best, true
		}
		if c.depth == c.end {
			return Result{}, false
		}
		c.step()
	}
}

// step reads one row of every list and completes the aggregate of each
// document it sees for the first time.
func (c *Cursor) step() {
	for _, l := range c.lists {
		doc := l[c.depth].Doc
		if c.seen[doc] {
			continue
		}
		c.seen[doc] = true
		if s, ok := c.aggregate(doc); ok {
			r := Result{Doc: doc, Score: s}
			i := sort.Search(len(c.cands), func(i int) bool { return ranksBefore(c.cands[i], r) })
			c.cands = slices.Insert(c.cands, i, r)
		}
	}
	c.depth++
}

// aggregate sums doc's per-term scores in query order, the order
// TopKNaive adds in; false when some term's list omits doc.
func (c *Cursor) aggregate(doc int) (float64, bool) {
	var sum float64
	for _, t := range c.terms {
		s, ok := c.ix.random[t][doc]
		if !ok {
			return 0, false
		}
		sum += s
	}
	return sum, true
}

// settled reports whether no unseen document can outrank best. An unseen
// document scores at most the frontier — the last score read — in every
// list (scores are non-negative), so at most their sum T. On a tie with T
// it must tie the frontier in every list, and within a score each list is
// sorted by doc ID, so it sits at or after every list's next unread
// posting: best is settled when one of those scores below its frontier or
// carries a larger doc ID. Settling on best.Score >= T alone would return
// best ahead of a tying unseen document with a smaller ID. The argument
// assumes exact sums, as small integer scores have.
func (c *Cursor) settled(best Result) bool {
	var t float64
	for _, l := range c.lists {
		t += l[c.depth-1].Score
	}
	if best.Score != t {
		return best.Score > t
	}
	for _, l := range c.lists {
		if next := l[c.depth]; next.Score < l[c.depth-1].Score || next.Doc > best.Doc {
			return true
		}
	}
	return false
}

// Where is the cursor's ranking through the post-filter pass (nil keeps
// every hit). Scores descend, so the first hit below minScore ends it.
// The context is checked every 1 024 cursor pulls, rejected hits
// included, and a cancelled one ends the ranking early; Page then
// returns ctx.Err().
func (c *Cursor) Where(ctx context.Context, minScore float64, pass func(doc int) bool) func() (Result, bool) {
	pulls := 0
	return func() (Result, bool) {
		for {
			if pulls++; pulls%1024 == 0 && ctx.Err() != nil {
				return Result{}, false
			}
			r, ok := c.Next()
			if !ok || r.Score < minScore {
				return Result{}, false
			}
			if pass == nil || pass(r.Doc) {
				return r, true
			}
		}
	}
}

// Page pulls a ranking — next yields hits best first and false once none
// is left, after which it is not called again — until it holds the
// window [offset, offset+k) plus one hit more, which only sets more. The
// context is checked every 1 024 pulls and when the ranking ends, so a
// ranking cut short by cancellation returns ctx.Err().
func Page[T any](ctx context.Context, next func() (T, bool), offset, k int) (hits []T, more bool, err error) {
	for pulls := 1; ; pulls++ {
		if pulls%1024 == 0 && ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
		h, ok := next()
		if !ok {
			if err := ctx.Err(); err != nil {
				return nil, false, err
			}
			return hits, false, nil
		}
		if offset > 0 {
			offset--
			continue
		}
		if len(hits) >= k {
			return hits, true, nil
		}
		if hits == nil {
			// k is caller-controlled, so it alone must not size the page.
			hits = make([]T, 0, min(k, 64))
		}
		hits = append(hits, h)
	}
}

// TopK returns the first k hits of a Cursor over terms. Its policy
// parameter is kept for bench/, which pins the signature.
func (ix *Index) TopK(terms []int, k int, _ MissingPolicy) []Result {
	hits, _, _ := Page(context.Background(), ix.Cursor(terms).Next, 0, k)
	return hits
}

// TopKNaive answers the same query by exhaustively scoring every document
// of the first term's list. It is the testing oracle for Cursor.
func (ix *Index) TopKNaive(terms []int, k int) []Result {
	if k <= 0 || len(terms) == 0 {
		return nil
	}
	var out []Result
	for _, p := range ix.postings[terms[0]] {
		var sum float64
		ok := true
		for _, t := range terms {
			s, present := ix.random[t][p.Doc]
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
	sort.Slice(out, func(i, j int) bool { return ranksBefore(out[i], out[j]) })
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// ranksBefore is the rank order of postings and hits: score descending,
// then doc ID ascending.
func ranksBefore(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Doc < b.Doc
}
