package stburst

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync/atomic"

	"stburst/internal/index"
	"stburst/internal/interval"
	"stburst/internal/search"
)

// Kind identifies a pattern type and the miner that produces it. The
// zero value is KindAny, so a Query that never mentions a kind fans out
// to every index resident in a Store.
type Kind int

const (
	// KindAny selects every resident kind: Store.Query fans the request
	// out to each index it holds and merges the hits. It is the zero
	// value, never a kind an index can store.
	KindAny Kind = iota
	// KindRegional selects STLocal regional windows (§4).
	KindRegional
	// KindCombinatorial selects STComb combinatorial patterns (§3).
	KindCombinatorial
	// KindTemporal selects merged-stream temporal intervals (the TB
	// comparison system of §6.3).
	KindTemporal
)

// Kinds lists the concrete pattern kinds in canonical (regional,
// combinatorial, temporal) order — the fan-out and serialization order
// used by Store and the bundle format.
func Kinds() []Kind {
	out := make([]Kind, index.NumKinds)
	for i := range out {
		out[i] = kindOf(index.PatternKind(i))
	}
	return out
}

// patternKind maps a concrete kind onto the internal pattern-set kind:
// the public enum is the kind table's shifted by one, leaving the zero
// value to KindAny. It reports false for KindAny and out-of-range
// values, which name no single pattern type.
func (k Kind) patternKind() (index.PatternKind, bool) {
	pk := index.PatternKind(k - 1)
	return pk, pk.Valid()
}

// kindOf lifts an internal pattern-set kind back into the public enum.
func kindOf(pk index.PatternKind) Kind { return Kind(pk) + 1 }

// String returns the kind's name: "any", "regional", "combinatorial" or
// "temporal".
func (k Kind) String() string {
	if k == KindAny {
		return "any"
	}
	return index.PatternKind(k - 1).String()
}

// ParseKind resolves a kind name, accepting the pattern names (regional,
// combinatorial, temporal), the paper's miner names (stlocal, stcomb,
// tb) the CLI tools historically used, and "any" for the Store fan-out.
func ParseKind(s string) (Kind, error) {
	if s == "any" {
		return KindAny, nil
	}
	if pk, ok := index.ParseKind(s); ok {
		return kindOf(pk), nil
	}
	return 0, fmt.Errorf("stburst: unknown pattern kind %q (want any, regional/stlocal, combinatorial/stcomb or temporal/tb)", s)
}

// MarshalJSON encodes the kind as its name, the representation the /v1
// HTTP surface speaks.
func (k Kind) MarshalJSON() ([]byte, error) {
	if _, ok := k.patternKind(); !ok && k != KindAny {
		return nil, fmt.Errorf("stburst: cannot encode unknown pattern kind %d", int(k))
	}
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes a kind name as accepted by ParseKind. The empty
// string is KindAny, matching the zero value of an absent field.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("stburst: pattern kind must be a JSON string: %w", err)
	}
	if s == "" {
		*k = KindAny
		return nil
	}
	parsed, err := ParseKind(s)
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// MineOptions configures Collection.MineStore. A store always mines with
// the paper's defaults, so its one setting is the worker count; the zero
// value (or a nil pointer) runs one worker per CPU. Build one literally,
// or with NewMineOptions(WithParallelism(n)).
type MineOptions struct {
	// Parallelism is the mining worker count: < 1 means one worker per
	// CPU, 1 reproduces the sequential loop exactly, and every value
	// yields bit-identical output.
	Parallelism int
}

// MineOption mutates a MineOptions functional-style.
type MineOption func(*MineOptions)

// NewMineOptions assembles a MineOptions from functional options.
func NewMineOptions(opts ...MineOption) *MineOptions {
	mo := &MineOptions{}
	for _, o := range opts {
		o(mo)
	}
	return mo
}

// WithParallelism sets the mining worker count (< 1 means one worker per
// CPU).
func WithParallelism(n int) MineOption {
	return func(mo *MineOptions) { mo.Parallelism = n }
}

// MineStore mines the given concrete pattern kinds — all three when none
// is named — for every term of the corpus and returns a Store holding one
// index per kind. The (term, kind) work list is fanned out once across a
// bounded worker pool; any parallelism yields bit-identical indexes (each
// term is mined independently on a private miner). KindAny and a kind
// named twice are errors. A cancelled context stops dispatching further
// terms and returns ctx.Err() promptly — mining already in flight
// finishes its current term first. Every kind mines with the paper's
// defaults, as Store.Ingest and AttachWAL re-mine; a nil opts runs one
// worker per CPU.
func (c *Collection) MineStore(ctx context.Context, opts *MineOptions, kinds ...Kind) (*Store, error) {
	if len(kinds) == 0 {
		kinds = Kinds()
	}
	empty := make([]*index.PatternSet, len(kinds))
	for i, k := range kinds {
		pk, ok := k.patternKind()
		if !ok {
			return nil, fmt.Errorf("stburst: MineStore needs concrete pattern kinds, got %v", k)
		}
		if slices.Contains(kinds[:i], k) {
			return nil, fmt.Errorf("stburst: MineStore: %v named twice", k)
		}
		empty[i] = index.EmptySet(pk)
	}
	s := newStore(c)
	s.SetMineOptions(opts)
	sets, err := search.MineSets(ctx, c.col, c.col.Terms(), empty, &index.MineOptions{}, s.workers())
	if err != nil {
		return nil, err
	}
	var next residentSet
	for _, set := range sets {
		next[set.Kind()] = &PatternIndex{c: c, set: set}
	}
	s.indexes.Store(&next)
	// A mined store counts one generation per kind it holds, as if each
	// had been installed in turn; saved bundles carry this number.
	s.gen.Store(uint64(len(sets)))
	return s, nil
}

// PatternIndex is a cached, query-ready store of spatiotemporal patterns
// mined across the entire corpus vocabulary, keyed by term. It is built
// by Collection.MineStore or LoadStore and consulted afterwards by both
// the per-term accessors and the search engine, so repeated queries never
// re-mine the corpus.
//
// A PatternIndex is immutable after construction and safe for concurrent
// use from any number of goroutines.
type PatternIndex struct {
	c   *Collection
	set *index.PatternSet

	eng atomic.Pointer[Engine] // built on first use, or warmed by a store refresh
}

// Kind names the pattern type the index stores: "regional",
// "combinatorial" or "temporal".
func (ix *PatternIndex) Kind() string { return ix.set.Kind().String() }

// PatternKind returns the typed pattern kind the index stores — always
// a concrete kind, never KindAny.
func (ix *PatternIndex) PatternKind() Kind { return kindOf(ix.set.Kind()) }

// Terms returns every term holding at least one pattern, in ascending
// interned-ID (i.e. first-seen) order.
func (ix *PatternIndex) Terms() []string {
	ids := ix.set.Terms()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = ix.c.col.Dict().Term(id)
	}
	return out
}

// NumTerms returns the number of terms holding at least one pattern.
func (ix *PatternIndex) NumTerms() int { return ix.set.NumTerms() }

// NumPatterns returns the total number of stored patterns.
func (ix *PatternIndex) NumPatterns() int { return ix.set.NumPatterns() }

// RegionalPatterns returns the stored regional patterns of a term, exactly
// as Collection.RegionalPatterns would mine them. It is nil for terms
// without patterns and for indexes of other kinds. The slice aliases the
// index's shared storage (unlike the per-term miner, which returns a
// fresh slice): callers must not modify it — copy first to sort or edit.
func (ix *PatternIndex) RegionalPatterns(term string) []RegionalPattern {
	id, ok := ix.c.col.Dict().Lookup(NormalizeTerm(term))
	if !ok {
		return nil
	}
	return ix.set.Windows(id)
}

// CombinatorialPatterns returns the stored combinatorial patterns of a
// term, exactly as Collection.CombinatorialPatterns would mine them. It is
// nil for terms without patterns and for indexes of other kinds. The
// slice aliases the index's shared storage; callers must not modify it.
func (ix *PatternIndex) CombinatorialPatterns(term string) []CombinatorialPattern {
	id, ok := ix.c.col.Dict().Lookup(NormalizeTerm(term))
	if !ok {
		return nil
	}
	return ix.set.Combs(id)
}

// TemporalBursts returns the stored merged-stream bursty intervals of a
// term, exactly as Collection.TemporalBursts would mine them. It is nil
// for terms without intervals and for indexes of other kinds. The slice
// aliases the index's shared storage; callers must not modify it.
func (ix *PatternIndex) TemporalBursts(term string) []TemporalInterval {
	id, ok := ix.c.col.Dict().Lookup(NormalizeTerm(term))
	if !ok {
		return nil
	}
	return ix.set.Temporal(id)
}

// Pattern is one stored pattern of any kind, as the kind-independent
// union of the fields the kinds store. Every pattern has a timeframe
// [Start, End] and a score; Rect is set for kinds that store a region
// (regional), Streams for kinds that store member streams (regional,
// combinatorial) and Intervals for kinds that store each member stream's
// contributing interval (combinatorial). The slices and the rectangle
// alias the index's shared storage; callers must not modify them.
type Pattern struct {
	Kind       Kind
	Start, End int
	Score      float64
	Rect       *Rect
	Streams    []int
	Intervals  []interval.Interval
}

// Patterns returns the stored patterns of a term, whatever the index's
// kind, restricted to those intersecting the region and/or timeframe
// (nil filters match everything) under exactly the notion Query's
// Region/Time post-filter uses: regional windows intersect through
// their rectangle, combinatorial patterns through their member streams'
// locations, temporal intervals through their timeframe only. It is nil
// for terms without matching patterns.
func (ix *PatternIndex) Patterns(term string, region *Rect, time *Timespan) []Pattern {
	id, ok := ix.c.col.Dict().Lookup(NormalizeTerm(term))
	if !ok {
		return nil
	}
	var points []Point // only a region filter consults stream locations
	if region != nil {
		points = ix.c.col.Points()
	}
	views := ix.set.Matching(id, points, region, time)
	if len(views) == 0 {
		return nil
	}
	kind, layout := ix.PatternKind(), ix.set.Kind().Desc()
	out := make([]Pattern, len(views))
	for i := range views {
		v := &views[i]
		out[i] = Pattern{Kind: kind, Start: v.Start, End: v.End, Score: v.Score, Streams: v.Streams, Intervals: v.Intervals}
		if layout.Rect {
			out[i].Rect = &v.Rect
		}
	}
	return out
}

// Fingerprint returns a hex SHA-256 digest over a canonical serialization
// of the whole index. Equal fingerprints mean byte-identical pattern
// content; the concurrency suite uses it to assert determinism across
// worker counts and repeated runs.
func (ix *PatternIndex) Fingerprint() string { return ix.set.Fingerprint() }

// attachSnapshot re-interns a decoded bundle member into the
// collection's dictionary and validates it against the collection's
// shape — the back half of LoadStore.
func attachSnapshot(snap *index.Snapshot, c *Collection) (*PatternIndex, error) {
	set, err := snap.Remap(c.col.Dict().Lookup)
	if err != nil {
		return nil, err
	}
	// Vocabulary matching is not enough: a snapshot from a structurally
	// different corpus (fewer streams, shorter timeline) would pass the
	// checks above and panic later on the serving path.
	if err := set.Validate(c.NumStreams(), c.Timeline()); err != nil {
		return nil, fmt.Errorf("snapshot does not fit the collection: %w", err)
	}
	return &PatternIndex{c: c, set: set}, nil
}

// Engine returns a search engine answering queries from the stored
// patterns. The engine is built on first use — unless the store's ingest
// path already derived it from the previous generation's engine — and
// cached; no call ever re-mines the corpus. It is safe to call
// concurrently: every caller gets the same engine, though concurrent
// first callers may each build one.
func (ix *PatternIndex) Engine() *Engine {
	if e := ix.eng.Load(); e != nil {
		return e
	}
	ix.eng.CompareAndSwap(nil, &Engine{c: ix.c, eng: search.BuildFromPatterns(ix.c.col, ix.set), kind: ix.PatternKind()})
	return ix.eng.Load()
}

// successor returns the index over set, the re-mine of ix's set for the
// dirty terms, with its engine warmed before any query can reach it: a
// Refresh of ix's engine, which rebuilds only the dirty terms' posting
// lists and shares the rest, or — when ix's engine was never built —
// one build from set itself.
func (ix *PatternIndex) successor(set *index.PatternSet, dirty []int) *PatternIndex {
	next := &PatternIndex{c: ix.c, set: set}
	if e := ix.eng.Load(); e != nil {
		next.eng.Store(&Engine{c: ix.c, eng: e.eng.Refresh(set, dirty), kind: e.kind})
	} else {
		next.Engine()
	}
	return next
}
