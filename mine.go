package stburst

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

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

// MineOptions configures Collection.Mine. The zero value (or a nil
// pointer) mines with the paper's defaults on one worker per CPU.
// Build one literally; NewMineOptions(WithParallelism(n)) is the
// functional shorthand for setting the worker count alone.
type MineOptions struct {
	// Parallelism is the mining worker count: < 1 means one worker per
	// CPU, 1 reproduces the sequential loop exactly, and every value
	// yields bit-identical output.
	Parallelism int
	// Regional tunes KindRegional mining; nil uses the paper's defaults.
	Regional *RegionalOptions
	// Combinatorial tunes KindCombinatorial mining; nil uses the paper's
	// defaults.
	Combinatorial *CombinatorialOptions
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

// core translates the options into the per-kind miners' own.
func (o *MineOptions) core() *index.MineOptions {
	return &index.MineOptions{Local: o.Regional.coreOptions(), Comb: o.Combinatorial.coreOptions()}
}

// Mine mines patterns of the given kind for every term of the corpus and
// returns the resulting pattern index. The vocabulary is fanned out
// across a bounded worker pool; any parallelism yields bit-identical
// output (each term is mined independently on a private miner). A
// cancelled context stops dispatching further terms and returns ctx.Err()
// promptly — mining already in flight finishes its current term first. A
// nil opts mines with the paper's defaults on one worker per CPU.
func (c *Collection) Mine(ctx context.Context, kind Kind, opts *MineOptions) (*PatternIndex, error) {
	if _, ok := kind.patternKind(); !ok {
		return nil, fmt.Errorf("stburst: Mine needs a concrete pattern kind, got %v (use MineStore to mine every kind)", kind)
	}
	ixs, err := c.mine(ctx, []Kind{kind}, opts)
	if err != nil {
		return nil, err
	}
	return ixs[0], nil
}

// mine mines the given concrete kinds in one pass over a single shared
// worker pool and returns one index per kind, in order.
func (c *Collection) mine(ctx context.Context, kinds []Kind, opts *MineOptions) ([]*PatternIndex, error) {
	if opts == nil {
		opts = &MineOptions{}
	}
	empty := make([]*index.PatternSet, len(kinds))
	for i, k := range kinds {
		pk, _ := k.patternKind()
		empty[i] = index.EmptySet(pk)
	}
	sets, err := search.MineSets(ctx, c.col, c.col.Terms(), empty, opts.core(), opts.Parallelism)
	if err != nil {
		return nil, err
	}
	ixs := make([]*PatternIndex, len(sets))
	for i, set := range sets {
		ixs[i] = &PatternIndex{c: c, set: set}
	}
	return ixs, nil
}

// MineStore mines all three pattern kinds in one pass over a single
// shared worker pool — the vocabulary is fanned out once with a
// (term, kind) work list instead of three sequential sweeps — and
// returns a Store holding the three resulting indexes. Parallelism and
// cancellation semantics match Mine; any worker count yields
// bit-identical indexes. A nil opts mines with the paper's defaults on
// one worker per CPU.
func (c *Collection) MineStore(ctx context.Context, opts *MineOptions) (*Store, error) {
	ixs, err := c.mine(ctx, Kinds(), opts)
	if err != nil {
		return nil, err
	}
	s := NewStore(c)
	// Record the mining options so Store.Ingest re-mines dirty terms
	// with exactly the parameters the resident indexes were mined with.
	s.SetMineOptions(opts)
	for _, ix := range ixs {
		if _, err := s.Swap(ix.PatternKind(), ix); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// PatternIndex is a cached, query-ready store of spatiotemporal patterns
// mined across the entire corpus vocabulary, keyed by term. It is built
// once by Collection.Mine (or MineStore) and consulted afterwards by both
// the per-term accessors and the search engine, so repeated queries never
// re-mine the corpus.
//
// A PatternIndex is immutable after construction and safe for concurrent
// use from any number of goroutines.
type PatternIndex struct {
	c   *Collection
	set *index.PatternSet

	engOnce sync.Once
	eng     *Engine

	fpOnce sync.Once
	fp     string
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
// worker counts and repeated runs. The digest is computed on first use
// and cached — the index is immutable, and serving paths (/v1/indexes,
// /v1/stats) consult it on every poll.
func (ix *PatternIndex) Fingerprint() string {
	ix.fpOnce.Do(func() { ix.fp = ix.set.Fingerprint() })
	return ix.fp
}

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
// patterns. The engine is built on first use and cached; no call ever
// re-mines the corpus. It is safe to call concurrently.
func (ix *PatternIndex) Engine() *Engine {
	ix.engOnce.Do(func() {
		ix.eng = &Engine{c: ix.c, eng: search.BuildFromPatterns(ix.c.col, ix.set), kind: ix.PatternKind()}
	})
	return ix.eng
}

// Search retrieves the top-k documents for a free-text query against the
// stored patterns (Eq. 10/11), building the cached engine on first use.
func (ix *PatternIndex) Search(query string, k int) []Hit {
	return ix.Engine().Search(query, k)
}
