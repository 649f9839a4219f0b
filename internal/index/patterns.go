package index

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"

	"stburst/internal/burst"
	"stburst/internal/core"
	"stburst/internal/geo"
	"stburst/internal/stream"
)

// PatternSet is a cached, query-ready store of corpus-wide mined patterns
// of one kind, keyed by interned term ID. It is immutable after
// construction and therefore safe for concurrent use by any number of
// goroutines: the search layer consults it on every engine build instead
// of re-mining, and readers may look terms up while other readers iterate.
type PatternSet struct {
	kind     PatternKind
	byTerm   any   // map[int][]P over the kind's concrete pattern type P
	terms    []int // term IDs with at least one pattern, ascending
	patterns int   // total number of stored patterns

	fpOnce sync.Once
	fp     [32]byte // the canonical digest; see Fingerprint
}

// NewWindowSet wraps per-term STLocal windows. The map is adopted, not
// copied; the caller must not mutate it afterwards.
func NewWindowSet(byTerm map[int][]core.Window) *PatternSet { return newSet(KindRegional, byTerm) }

// NewCombSet wraps per-term STComb patterns. The map is adopted, not
// copied; the caller must not mutate it afterwards.
func NewCombSet(byTerm map[int][]core.CombPattern) *PatternSet {
	return newSet(KindCombinatorial, byTerm)
}

// NewTemporalSet wraps per-term temporal bursty intervals. The map is
// adopted, not copied; the caller must not mutate it afterwards.
func NewTemporalSet(byTerm map[int][]burst.Interval) *PatternSet {
	return newSet(KindTemporal, byTerm)
}

// EmptySet returns a set of the given (Valid) kind holding no patterns —
// the starting point of a from-scratch Remine.
func EmptySet(kind PatternKind) *PatternSet {
	_, done := kinds[kind].build()
	return done()
}

// Kind returns which miner produced the set.
func (s *PatternSet) Kind() PatternKind { return s.kind }

// Terms returns the term IDs holding at least one pattern, in ascending
// order. The slice is shared; callers must not mutate it.
func (s *PatternSet) Terms() []int { return s.terms }

// NumTerms returns the number of terms with at least one pattern.
func (s *PatternSet) NumTerms() int { return len(s.terms) }

// NumPatterns returns the total number of stored patterns.
func (s *PatternSet) NumPatterns() int { return s.patterns }

// Windows returns the stored STLocal windows of a term (nil when the term
// has none or the set holds a different kind).
func (s *PatternSet) Windows(term int) []core.Window { return s.AllWindows()[term] }

// Combs returns the stored STComb patterns of a term (nil when the term
// has none or the set holds a different kind).
func (s *PatternSet) Combs(term int) []core.CombPattern { return s.AllCombs()[term] }

// Temporal returns the stored temporal intervals of a term (nil when the
// term has none or the set holds a different kind).
func (s *PatternSet) Temporal(term int) []burst.Interval { return s.AllTemporal()[term] }

// AllWindows returns the full per-term window map (nil for other kinds).
// The map is shared; callers must not mutate it.
func (s *PatternSet) AllWindows() map[int][]core.Window { return patterns[core.Window](s) }

// AllCombs returns the full per-term pattern map (nil for other kinds).
// The map is shared; callers must not mutate it.
func (s *PatternSet) AllCombs() map[int][]core.CombPattern { return patterns[core.CombPattern](s) }

// AllTemporal returns the full per-term interval map (nil for other
// kinds). The map is shared; callers must not mutate it.
func (s *PatternSet) AllTemporal() map[int][]burst.Interval { return patterns[burst.Interval](s) }

// Views returns the stored patterns of a term in stored order, projected
// onto the kind-independent View (nil when the term has none).
func (s *PatternSet) Views(term int) []View {
	return kinds[s.kind].views(s, term, nil, nil, nil)
}

// Matching is Views restricted to the patterns that intersect the filter
// under the kind's notion of intersection: regional windows through their
// rectangle, combinatorial patterns through their member streams'
// locations (points is the collection's stream-location table), temporal
// intervals — deliberately geography-free — through their timeframe only.
// Nil halves match everything. It is the single definition of "pattern
// intersects the filter", shared with the query post-filter (Filter).
func (s *PatternSet) Matching(term int, points []geo.Point, region *geo.Rect, span *Timespan) []View {
	return kinds[s.kind].views(s, term, points, region, span)
}

// Coverage is the scratch grid that answers f(P_{t,d}) of Eq. 11 over the
// set, one term at a time: Paint lays the term's patterns onto a stream ×
// time grid, each cell keeping the best score painted over it, and At
// reads a document's cell. A document's burstiness is then one lookup
// instead of a scan of every pattern of the term. A kind that stores no
// streams covers by time alone and paints one row. The grid is as large
// as one term's Surface; it keeps nothing of a term past the next Paint,
// and a Coverage serves one goroutine at a time.
type Coverage struct {
	set      *PatternSet
	cells    []float64 // rows × width; -Inf where no pattern covers
	rows     int
	width    int
	timeOnly bool
	score    float64                  // the score of the pattern being painted
	run      func(stream, lo, hi int) // c.paintRun, bound once
}

// Coverage returns an unpainted grid for documents of numStreams streams
// over a timeline of the given length: the shape of the collection the
// set is scored against. Runs of a pattern outside that shape are
// clipped to it.
func (s *PatternSet) Coverage(numStreams, timeline int) *Coverage {
	c := &Coverage{set: s, rows: numStreams, width: timeline, timeOnly: !s.kind.Desc().Streams}
	if c.timeOnly {
		c.rows = 1
	}
	c.cells = make([]float64, c.rows*c.width)
	c.run = c.paintRun
	return c
}

// Paint clears the grid and paints the term's patterns onto it in stored
// order. A cell rises only on a strictly greater score, so it ends at the
// score a scan of the term's patterns keeps: the maximum among those
// covering it, the first painted of equal ones. For the finite scores
// Validate admits, that maximum does not depend on the painting order.
func (c *Coverage) Paint(term int) {
	for i := range c.cells {
		c.cells[i] = math.Inf(-1)
	}
	kinds[c.set.kind].paint(c, term)
}

// paintRun raises the cells [lo, hi] of one stream's row, or of the time
// row when stream is -1, to the current pattern's score.
func (c *Coverage) paintRun(stream, lo, hi int) {
	if c.timeOnly {
		stream = 0
	}
	if stream < 0 || stream >= c.rows {
		return
	}
	lo, hi = max(lo, 0), min(hi, c.width-1)
	if lo > hi {
		return
	}
	score := c.score
	cells := c.cells[stream*c.width+lo : stream*c.width+hi+1]
	for t, v := range cells {
		if score > v {
			cells[t] = score
		}
	}
}

// At returns the best score among the painted term's patterns that
// overlap a document from the given stream at the given timestamp, and
// whether any does (-Inf and false when none does). Both must lie inside
// the grid's shape.
func (c *Coverage) At(stream, time int) (float64, bool) {
	if c.timeOnly {
		stream = 0
	}
	v := c.cells[stream*c.width+time]
	return v, v != math.Inf(-1)
}

// Filter returns the post-filter predicate of one query: whether some
// pattern of the term both overlaps the document (as Coverage paints it)
// and intersects the region/timespan (as Matching does).
func (s *PatternSet) Filter(points []geo.Point, region *geo.Rect, span *Timespan) func(term, stream, time int) bool {
	return kinds[s.kind].filter(s, points, region, span)
}

// Remine starts re-mining the given terms with the set's kind of miner
// over col: mine(i) mines terms[i] on a private miner instance and is
// safe to call concurrently for distinct i; refreshed, called once every
// mine has returned, yields a new set in which each mined term's entry is
// replaced (dropped, when it mined to nothing) and every other term
// shares s's pattern slices. s itself is never modified, so indexes built
// over it keep serving meanwhile. Because each term is mined
// independently of every other, the result over any term list covering
// the changed terms is bit-identical to mining the whole vocabulary from
// an EmptySet.
func (s *PatternSet) Remine(col *stream.Collection, terms []int, o *MineOptions) (mine func(i int), refreshed func() *PatternSet) {
	return kinds[s.kind].remine(s, col, terms, o)
}

// With returns a set holding s's patterns, except that each listed
// term's patterns are from's — and a listed term from holds none of is
// dropped. from must be of s's kind. Neither set is modified and every
// pattern slice is shared, so the copy is one map entry per term: one
// term cut out of a resident set is EmptySet(kind).With(set, []int{id}),
// and a foreign term joins a resident set the same way.
func (s *PatternSet) With(from *PatternSet, terms []int) *PatternSet {
	return kinds[s.kind].with(s, from, terms)
}

// appender appends a pattern's stored fields to buf. Floats are always
// their 8-byte IEEE-754 bit patterns. Counts and ints are the member
// format's varints, or, with fixed set, 8-byte words: the fingerprint's
// encoding, in which every value is its exact bit pattern.
type appender struct {
	buf   []byte
	fixed bool
}

func (a *appender) count(n int) {
	if a.fixed {
		a.int(n)
		return
	}
	a.buf = binary.AppendUvarint(a.buf, uint64(n))
}

func (a *appender) int(v int) {
	if a.fixed {
		a.buf = binary.LittleEndian.AppendUint64(a.buf, uint64(int64(v)))
		return
	}
	a.buf = binary.AppendVarint(a.buf, int64(v))
}

func (a *appender) float(v float64) {
	a.buf = binary.LittleEndian.AppendUint64(a.buf, math.Float64bits(v))
}

// encode appends one pattern's stored fields in the canonical order.
func (k *Kind) encode(a *appender, v *View) {
	if k.Rect {
		a.float(v.Rect.MinX)
		a.float(v.Rect.MinY)
		a.float(v.Rect.MaxX)
		a.float(v.Rect.MaxY)
	}
	if k.Streams {
		a.count(len(v.Streams))
		for _, x := range v.Streams {
			a.int(x)
		}
	}
	a.int(v.Start)
	a.int(v.End)
	a.float(v.Score)
	if k.Intervals {
		a.count(len(v.Intervals))
		for _, iv := range v.Intervals {
			a.int(iv.Stream)
			a.int(iv.Start)
			a.int(iv.End)
			a.float(iv.Weight)
		}
	}
}

// Fingerprint returns a hex SHA-256 digest over a canonical serialization
// of the whole set: terms in ascending order, patterns in stored order,
// every coordinate and score encoded by its exact bit pattern. Two sets
// fingerprint equally iff their contents are identical, so the determinism
// suite can assert byte-identical mining output across worker counts and
// repeated runs with a single comparison. The digest is computed on first
// use and cached: the set is immutable, and serving paths (/v1/indexes,
// /v1/stats) and every bundle save consult it.
func (s *PatternSet) Fingerprint() string {
	fp := s.digest()
	return hex.EncodeToString(fp[:])
}

// digest is the raw fingerprint, computed once per set.
func (s *PatternSet) digest() [32]byte {
	s.fpOnce.Do(func() {
		h := sha256.New()
		a := appender{fixed: true}
		k := s.kind.Desc()
		a.int(int(s.kind))
		for _, t := range s.terms {
			a.int(t)
			vs := s.Views(t)
			a.count(len(vs))
			for i := range vs {
				k.encode(&a, &vs[i])
			}
			h.Write(a.buf)
			a.buf = a.buf[:0]
		}
		h.Write(a.buf) // the kind word of a set without terms
		h.Sum(s.fp[:0])
	})
	return s.fp
}
