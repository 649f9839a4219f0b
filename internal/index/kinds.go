package index

import (
	"sort"

	"stburst/internal/burst"
	"stburst/internal/core"
	"stburst/internal/geo"
	"stburst/internal/interval"
	"stburst/internal/stream"
)

// This file is the kind table: everything that differs between the
// paper's burstiness models — STLocal (§4), STComb (§3) and the
// merged-stream TB baseline (§6.3) — is one entry of kinds below. Every
// other layer (set construction, fingerprint, snapshot codec, validation,
// re-keying, corpus-wide mining, engine build, query post-filter, alert
// matching, JSON) is one generic loop over an entry; no other file
// switches on a kind. See DESIGN.md, "Adding a pattern kind".

// PatternKind identifies which miner produced the patterns in a
// PatternSet. The values are the on-disk kind IDs of the snapshot and
// bundle formats and index the kind table.
type PatternKind int

const (
	// KindRegional holds STLocal windows.
	KindRegional PatternKind = iota
	// KindCombinatorial holds STComb patterns.
	KindCombinatorial
	// KindTemporal holds merged-stream temporal bursty intervals.
	KindTemporal
)

// Kind names one pattern kind and its stored field layout.
type Kind struct {
	ID PatternKind
	// Name is the pattern name ("regional"); Paper is the paper's name for
	// the miner ("stlocal"). ParseKind accepts either.
	Name, Paper string
	// Rect, Streams and Intervals say which optional parts of a View the
	// kind stores. Fingerprint and the snapshot codec emit, per pattern,
	// [rect] [streams] start end score [intervals] with the absent parts
	// switched off.
	Rect, Streams, Intervals bool
}

// View is the kind-independent projection of one stored pattern: the
// union of the fields the kinds store. Every pattern has a timeframe and
// a score; Rect, Streams and Intervals are zero unless the kind's layout
// stores them. The slices alias the stored pattern and must not be
// modified.
type View struct {
	Rect       geo.Rect
	Streams    []int
	Start, End int
	Score      float64
	Intervals  []interval.Interval
}

// Timespan is an inclusive timeframe [Start, End] on the collection's
// discrete timeline. The public stburst.Timespan is this type, so the
// JSON names are the /v1 wire names.
type Timespan struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// Overlaps reports whether the inclusive timeframe [start, end]
// intersects the span.
func (ts Timespan) Overlaps(start, end int) bool {
	return start <= ts.End && ts.Start <= end
}

// meets is Overlaps with a nil span matching every timeframe.
func (ts *Timespan) meets(start, end int) bool {
	return ts == nil || ts.Overlaps(start, end)
}

// MineOptions carries the mining parameters of every kind; each kind's
// miner reads its own. The zero value mines with the paper's defaults.
type MineOptions struct {
	Local core.STLocalOptions
	Comb  core.STCombOptions
	// Temporal detects bursts on the merged stream; nil uses the
	// discrepancy default.
	Temporal burst.Detector
}

// kindOf is one table entry over the kind's concrete pattern type P. The
// function fields are the whole per-kind surface; the methods below are
// the generic loops, instantiated once per kind.
type kindOf[P any] struct {
	Kind
	// mine runs the kind's miner over one term of the collection.
	mine func(col *stream.Collection, points []geo.Point, term int, o *MineOptions) []P
	// covers reports whether a document of the given stream and timestamp
	// overlaps the pattern (§5): the notion the query post-filter tests.
	covers func(p *P, stream, time int) bool
	// runs lists the same cells covers accepts, as runs: run(stream, lo,
	// hi) for the timestamps [lo, hi] of one stream, or of every stream
	// when stream is -1 (a kind that stores no Streams covers by time
	// alone). The engine scores with them through a Coverage.
	runs func(p *P, run func(stream, lo, hi int))
	// intersects reports whether the pattern meets a region/timespan
	// filter (nil halves match everything); points is the collection's
	// stream-location table.
	intersects func(p *P, points []geo.Point, region *geo.Rect, span *Timespan) bool
	// score is the pattern's burstiness score.
	score func(p *P) float64
	// view and fromView convert between the pattern and its stored fields.
	view     func(p *P) View
	fromView func(v *View) P
}

// kindOps is kindOf[P] with P erased, so the table can hold every kind
// and callers can reach the loops from a PatternSet's kind. Calls through
// it happen once per set, engine, query or term — never per pattern.
type kindOps interface {
	desc() *Kind
	build() (put func(term int, vs []View), done func() *PatternSet)
	views(s *PatternSet, term int, points []geo.Point, region *geo.Rect, span *Timespan) []View
	regroup(s *PatternSet, parts int, place func(term int) (part, id int)) []*PatternSet
	remine(s *PatternSet, col *stream.Collection, terms []int, o *MineOptions) (mine func(i int), refreshed func() *PatternSet)
	with(s, from *PatternSet, terms []int) *PatternSet
	paint(c *Coverage, term int)
	filter(s *PatternSet, points []geo.Point, region *geo.Rect, span *Timespan) func(term, stream, time int) bool
}

// kinds is the kind table, indexed by PatternKind.
var kinds = [...]kindOps{
	KindRegional: &kindOf[core.Window]{
		Kind: Kind{ID: KindRegional, Name: "regional", Paper: "stlocal", Rect: true, Streams: true},
		mine: func(col *stream.Collection, points []geo.Point, term int, o *MineOptions) []core.Window {
			ws, err := core.MineLocal(col.Surface(term), points, o.Local)
			if err != nil {
				// Surfaces are always well-formed here; an error indicates a
				// programming bug, not bad input.
				panic(err)
			}
			return ws
		},
		covers: func(w *core.Window, stream, time int) bool { return w.Overlaps(stream, time) },
		runs: func(w *core.Window, run func(stream, lo, hi int)) {
			for _, x := range w.Streams {
				run(x, w.Start, w.End)
			}
		},
		intersects: func(w *core.Window, _ []geo.Point, region *geo.Rect, span *Timespan) bool {
			return (region == nil || w.Rect.Intersects(*region)) && span.meets(w.Start, w.End)
		},
		score: func(w *core.Window) float64 { return w.Score },
		view: func(w *core.Window) View {
			return View{Rect: w.Rect, Streams: w.Streams, Start: w.Start, End: w.End, Score: w.Score}
		},
		fromView: func(v *View) core.Window {
			return core.Window{Rect: v.Rect, Streams: v.Streams, Start: v.Start, End: v.End, Score: v.Score}
		},
	},
	KindCombinatorial: &kindOf[core.CombPattern]{
		Kind: Kind{ID: KindCombinatorial, Name: "combinatorial", Paper: "stcomb", Streams: true, Intervals: true},
		mine: func(col *stream.Collection, _ []geo.Point, term int, o *MineOptions) []core.CombPattern {
			return core.STComb(col.Surface(term), o.Comb)
		},
		// A document overlaps a combinatorial pattern through its own
		// stream's contributing interval: large cliques can have
		// single-timestamp common segments, but every member document
		// inside its stream's burst belongs to the pattern.
		covers: func(p *core.CombPattern, stream, time int) bool { return p.OverlapsMember(stream, time) },
		runs: func(p *core.CombPattern, run func(stream, lo, hi int)) {
			for _, iv := range p.Intervals {
				run(iv.Stream, iv.Start, iv.End)
			}
		},
		// Some member stream's location lies inside the region, and the
		// common segment meets the span.
		intersects: func(p *core.CombPattern, points []geo.Point, region *geo.Rect, span *Timespan) bool {
			if region != nil && !anyInside(*region, points, p.Streams) {
				return false
			}
			return span.meets(p.Start, p.End)
		},
		score: func(p *core.CombPattern) float64 { return p.Score },
		view: func(p *core.CombPattern) View {
			return View{Streams: p.Streams, Start: p.Start, End: p.End, Score: p.Score, Intervals: p.Intervals}
		},
		fromView: func(v *View) core.CombPattern {
			return core.CombPattern{Streams: v.Streams, Start: v.Start, End: v.End, Score: v.Score, Intervals: v.Intervals}
		},
	},
	KindTemporal: &kindOf[burst.Interval]{
		Kind: Kind{ID: KindTemporal, Name: "temporal", Paper: "tb"},
		mine: func(col *stream.Collection, _ []geo.Point, term int, o *MineOptions) []burst.Interval {
			det := o.Temporal
			if det == nil {
				det = burst.Discrepancy{}
			}
			return det.Detect(col.MergedSeries(term))
		},
		// The TB comparison system disregards the document's stream of
		// origin and all geography: only time constrains.
		covers: func(iv *burst.Interval, _, time int) bool { return time >= iv.Start && time <= iv.End },
		runs:   func(iv *burst.Interval, run func(stream, lo, hi int)) { run(-1, iv.Start, iv.End) },
		intersects: func(iv *burst.Interval, _ []geo.Point, _ *geo.Rect, span *Timespan) bool {
			return span.meets(iv.Start, iv.End)
		},
		score: func(iv *burst.Interval) float64 { return iv.Score },
		view: func(iv *burst.Interval) View {
			return View{Start: iv.Start, End: iv.End, Score: iv.Score}
		},
		fromView: func(v *View) burst.Interval {
			return burst.Interval{Start: v.Start, End: v.End, Score: v.Score}
		},
	},
}

func anyInside(region geo.Rect, points []geo.Point, streams []int) bool {
	for _, x := range streams {
		if region.Contains(points[x]) {
			return true
		}
	}
	return false
}

// NumKinds is the number of kinds in the table.
const NumKinds = len(kinds)

// Kinds lists the kind table in canonical (regional, combinatorial,
// temporal) order — the bundle member order.
func Kinds() []*Kind {
	out := make([]*Kind, len(kinds))
	for i, k := range kinds {
		out[i] = k.desc()
	}
	return out
}

// Valid reports whether k names a kind of the table.
func (k PatternKind) Valid() bool { return k >= 0 && int(k) < len(kinds) }

// Desc returns the kind's table entry; k must be Valid.
func (k PatternKind) Desc() *Kind { return kinds[k].desc() }

// String returns the kind's name.
func (k PatternKind) String() string {
	if !k.Valid() {
		return "unknown"
	}
	return k.Desc().Name
}

// ParseKind resolves a pattern name (regional, combinatorial, temporal)
// or the paper's miner name (stlocal, stcomb, tb) to its kind.
func ParseKind(name string) (PatternKind, bool) {
	for _, k := range kinds {
		if d := k.desc(); name == d.Name || name == d.Paper {
			return d.ID, true
		}
	}
	return 0, false
}

func (k *kindOf[P]) desc() *Kind { return &k.Kind }

// patterns returns the set's per-term map when it stores pattern type P,
// and nil otherwise.
func patterns[P any](s *PatternSet) map[int][]P {
	m, _ := s.byTerm.(map[int][]P)
	return m
}

// newSet wraps a per-term pattern map. The map is adopted, not copied.
func newSet[P any](kind PatternKind, byTerm map[int][]P) *PatternSet {
	s := &PatternSet{kind: kind, byTerm: byTerm}
	for t, ps := range byTerm {
		s.terms = append(s.terms, t)
		s.patterns += len(ps)
	}
	sort.Ints(s.terms)
	return s
}

// build assembles a set from decoded views, one term at a time.
func (k *kindOf[P]) build() (func(term int, vs []View), func() *PatternSet) {
	byTerm := make(map[int][]P)
	put := func(term int, vs []View) {
		ps := make([]P, len(vs))
		for i := range vs {
			ps[i] = k.fromView(&vs[i])
		}
		byTerm[term] = ps
	}
	return put, func() *PatternSet { return newSet(k.ID, byTerm) }
}

// views projects the term's patterns that meet the filter.
func (k *kindOf[P]) views(s *PatternSet, term int, points []geo.Point, region *geo.Rect, span *Timespan) []View {
	ps := patterns[P](s)[term]
	if len(ps) == 0 {
		return nil
	}
	out := make([]View, 0, len(ps))
	for i := range ps {
		if k.intersects(&ps[i], points, region, span) {
			out = append(out, k.view(&ps[i]))
		}
	}
	return out
}

// regroup redistributes the set's terms over parts new sets: place names
// each term's destination and its ID there. Pattern slices are shared.
func (k *kindOf[P]) regroup(s *PatternSet, parts int, place func(term int) (part, id int)) []*PatternSet {
	byTerm := patterns[P](s)
	maps := make([]map[int][]P, parts)
	for i := range maps {
		maps[i] = make(map[int][]P, len(byTerm)/parts)
	}
	for t, ps := range byTerm {
		part, id := place(t)
		maps[part][id] = ps
	}
	out := make([]*PatternSet, parts)
	for i, m := range maps {
		out[i] = newSet(k.ID, m)
	}
	return out
}

// remine is the kind's share of a corpus-wide mining pass; see
// PatternSet.Remine.
func (k *kindOf[P]) remine(s *PatternSet, col *stream.Collection, terms []int, o *MineOptions) (func(i int), func() *PatternSet) {
	points := col.Points()
	mined := make([][]P, len(terms))
	mine := func(i int) { mined[i] = k.mine(col, points, terms[i], o) }
	// A term whose re-mine came back empty is dropped, as a full mine
	// never stores it: more data can dissolve a pattern as well as create
	// one, e.g. by raising the term's baseline.
	refreshed := func() *PatternSet { return k.replaced(s, terms, func(i int) []P { return mined[i] }) }
	return mine, refreshed
}

// MineTerm runs the kind's table miner over one term of col: the call
// every corpus-wide pass makes per term, for callers that want one
// term's patterns as mined rather than a set. P must be the kind's
// pattern type (core.Window, core.CombPattern, burst.Interval).
func MineTerm[P any](kind PatternKind, col *stream.Collection, term int, o *MineOptions) []P {
	return kinds[kind].(*kindOf[P]).mine(col, col.Points(), term, o)
}

// with is PatternSet.With for the kind.
func (k *kindOf[P]) with(s, from *PatternSet, terms []int) *PatternSet {
	src := patterns[P](from)
	return k.replaced(s, terms, func(i int) []P { return src[terms[i]] })
}

// replaced returns s with each terms[i]'s patterns replaced by get(i),
// and the term dropped when get(i) is empty. Every pattern slice is
// shared, so the copy is one map entry per term.
func (k *kindOf[P]) replaced(s *PatternSet, terms []int, get func(i int) []P) *PatternSet {
	prev := patterns[P](s)
	out := make(map[int][]P, len(prev)+len(terms))
	for t, ps := range prev {
		out[t] = ps
	}
	for i, t := range terms {
		if ps := get(i); len(ps) > 0 {
			out[t] = ps
		} else {
			delete(out, t)
		}
	}
	return newSet(k.ID, out)
}

// paint lays the term's patterns onto c's grid, in stored order: the
// engine-build hot loop. The per-run callback is bound once per Coverage,
// so nothing here allocates.
func (k *kindOf[P]) paint(c *Coverage, term int) {
	ps := patterns[P](c.set)[term]
	for i := range ps {
		c.score = k.score(&ps[i])
		k.runs(&ps[i], c.run)
	}
}

// filter is the query post-filter hot loop (one call per candidate
// document and query term): whether some pattern of the term both covers
// the document and meets the query's region/timespan.
func (k *kindOf[P]) filter(s *PatternSet, points []geo.Point, region *geo.Rect, span *Timespan) func(term, stream, time int) bool {
	byTerm, covers, intersects := patterns[P](s), k.covers, k.intersects
	return func(term, stream, time int) bool {
		ps := byTerm[term]
		for i := range ps {
			if covers(&ps[i], stream, time) && intersects(&ps[i], points, region, span) {
				return true
			}
		}
		return false
	}
}
