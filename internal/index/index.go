package index

import (
	"cmp"
	"context"
	"maps"
	"math"
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

// Index is an inverted index over per-term document scores: one
// immutable segment per term. It is never modified once built, so
// successive generations share their clean terms' segments by pointer.
type Index struct {
	segs map[int]*segment
}

// segment is one term's posting list held twice: byScore in rank order
// (score descending, ties by doc) for the cursor's sorted access, and
// byDoc in ascending doc order for random access by binary search.
type segment struct {
	byScore, byDoc []Posting
}

// With returns an index holding ix's segments, except that each listed
// term's segment is rebuilt from list(term) — the term's postings in
// ascending doc order, with non-negative scores, which the Threshold
// Algorithm's early-termination bound relies on — and a term whose list
// is empty is dropped. The index keeps the lists. ix is never modified
// and every unlisted term's segment is shared with it. A nil ix is the
// empty index.
func (ix *Index) With(terms []int, list func(term int) []Posting) *Index {
	out := &Index{segs: make(map[int]*segment)}
	if ix != nil {
		maps.Copy(out.segs, ix.segs)
	}
	for _, t := range terms {
		byDoc := list(t)
		if len(byDoc) == 0 {
			delete(out.segs, t)
			continue
		}
		out.segs[t] = &segment{byScore: rankOrder(byDoc), byDoc: byDoc}
	}
	return out
}

// rankOrder returns a copy of byDoc, whose postings ascend by doc, in
// rank order (rankCmp: score descending, then doc ascending) without a
// comparator sort. A term's scores take few distinct values — each is
// log(count+1) times one painted pattern score — so it sorts the D
// distinct scores and deals the postings, in doc order, into one bucket
// per score: every bucket's ties come out doc-ascending, in O(P + D log D)
// for P postings. A bucket holds the scores rankCmp ties: 0 with -0, and
// every NaN with every other.
func rankOrder(byDoc []Posting) []Posting {
	bucketOf := make([]int32, len(byDoc))
	var (
		scores []float64 // one per bucket, in order of first appearance
		sizes  []int     // postings per bucket; then each bucket's next slot
		index  = map[uint64]int32{}
		last   = uint64(math.MaxUint64) // no score's key
		b      int32
	)
	for i, p := range byDoc {
		key := math.Float64bits(p.Score + 0) // -0 + 0 is 0
		if p.Score != p.Score {
			key = math.Float64bits(math.NaN())
		}
		if key != last { // neighbours often share a score
			var ok bool
			if b, ok = index[key]; !ok {
				b = int32(len(scores))
				index[key] = b
				scores = append(scores, p.Score)
				sizes = append(sizes, 0)
			}
			last = key
		}
		bucketOf[i] = b
		sizes[b]++
	}
	order := make([]int32, len(scores))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(scores[b], scores[a]) })
	next := 0
	for _, b := range order {
		next, sizes[b] = next+sizes[b], next
	}
	out := make([]Posting, len(byDoc))
	for i, p := range byDoc {
		out[sizes[bucketOf[i]]] = p
		sizes[bucketOf[i]]++
	}
	return out
}

// score returns the segment's score of doc and whether doc is present:
// the cursor's random access. The search is written out because
// slices.BinarySearchFunc's comparator call measured about 1.4× slower.
func (s *segment) score(doc int) (float64, bool) {
	l := s.byDoc
	i, j := 0, len(l)
	for i < j {
		if h := int(uint(i+j) >> 1); l[h].Doc < doc {
			i = h + 1
		} else {
			j = h
		}
	}
	if i < len(l) && l[i].Doc == doc {
		return l[i].Score, true
	}
	return 0, false
}

// Terms returns the number of terms with at least one posting.
func (ix *Index) Terms() int { return len(ix.segs) }

// Postings returns the posting list of a term in rank order; nil when
// the term is unknown.
func (ix *Index) Postings(term int) []Posting {
	if s := ix.segs[term]; s != nil {
		return s.byScore
	}
	return nil
}

// Score returns the per-term score of doc and whether it is present.
func (ix *Index) Score(term, doc int) (float64, bool) {
	if s := ix.segs[term]; s != nil {
		return s.score(doc)
	}
	return 0, false
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
	bound := len(ix.Postings(terms[0]))
	for _, t := range terms[1:] {
		if n := len(ix.Postings(t)); n < bound {
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
	segs []*segment // the query terms' segments, in query order
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
// scores; Next yields hits by descending score, ties by doc ID.
func (ix *Index) Cursor(terms []int) *Cursor {
	c := &Cursor{end: ix.CandidateBound(terms), seen: make(map[int]bool)}
	for _, t := range terms {
		// An unknown term's nil segment zeroes end: nothing is read.
		c.segs = append(c.segs, ix.segs[t])
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
	for read, seg := range c.segs {
		p := seg.byScore[c.depth]
		if c.seen[p.Doc] {
			continue
		}
		c.seen[p.Doc] = true
		if s, ok := c.aggregate(p, read); ok {
			r := Result{Doc: p.Doc, Score: s}
			i := sort.Search(len(c.cands), func(i int) bool { return rankCmp(c.cands[i], r) < 0 })
			c.cands = slices.Insert(c.cands, i, r)
		}
	}
	c.depth++
}

// aggregate sums the per-term scores of p's document in query order,
// the order TopKNaive adds in, taking term read's score from p itself;
// false when some term's list omits the document.
func (c *Cursor) aggregate(p Posting, read int) (float64, bool) {
	var sum float64
	for i, seg := range c.segs {
		s, ok := p.Score, true
		if i != read {
			s, ok = seg.score(p.Doc)
		}
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
	for _, seg := range c.segs {
		t += seg.byScore[c.depth-1].Score
	}
	if best.Score != t {
		return best.Score > t
	}
	for _, seg := range c.segs {
		l := seg.byScore
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

// rankCmp is the rank order of postings and hits: score descending,
// then doc ID ascending.
func rankCmp(a, b Result) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	return cmp.Compare(a.Doc, b.Doc)
}
