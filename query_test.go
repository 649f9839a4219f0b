package stburst

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
)

// twoBurstCollection builds a corpus with the same term bursting in two
// geographically and temporally separated clusters: "earthquake" in the
// andes pair (around the origin) at weeks 4-6 and in the japan pair
// (far corner of the map) at weeks 10-12. Spatiotemporal filters can
// then isolate either wave.
func twoBurstCollection(t *testing.T) *Collection {
	t.Helper()
	streams := []StreamInfo{
		{Name: "lima", Location: Point{X: 0, Y: 0}},
		{Name: "quito", Location: Point{X: 2, Y: 1}},
		{Name: "tokyo", Location: Point{X: 90, Y: 80}},
		{Name: "osaka", Location: Point{X: 92, Y: 78}},
	}
	c := NewCollection(streams, 16)
	add := func(s, w int, text string) {
		t.Helper()
		if _, err := c.AddText(s, w, text); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 16; w++ {
		add(0, w, "local politics and weather report")
		add(1, w, "markets update and weather report")
		add(2, w, "technology news and weather report")
		add(3, w, "shipping schedules and weather report")
	}
	for w := 4; w <= 6; w++ {
		for i := 0; i < 4; i++ {
			add(0, w, "earthquake damage rescue earthquake")
			add(1, w, "earthquake tremors felt across the border")
		}
	}
	for w := 10; w <= 12; w++ {
		for i := 0; i < 4; i++ {
			add(2, w, "earthquake strikes offshore rescue crews deploy")
			add(3, w, "earthquake aftershocks rattle the coast")
		}
	}
	return c
}

var (
	andesRegion = Rect{MinX: -1, MinY: -1, MaxX: 5, MaxY: 5}
	japanRegion = Rect{MinX: 85, MinY: 75, MaxX: 95, MaxY: 85}
	andesTime   = Timespan{Start: 4, End: 6}
	japanTime   = Timespan{Start: 10, End: 12}
)

func TestQueryValidate(t *testing.T) {
	valid := Query{Text: "earthquake", K: 5}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	cases := map[string]Query{
		"empty":             {},
		"text and terms":    {Text: "a", Terms: []string{"b"}},
		"negative k":        {Text: "a", K: -1},
		"negative offset":   {Text: "a", Offset: -2},
		"k beyond MaxK":     {Text: "a", K: MaxK + 1},
		"offset beyond max": {Text: "a", Offset: MaxK + 1},
		"nan min score":     {Text: "a", MinScore: math.NaN()},
		"inf min score":     {Text: "a", MinScore: math.Inf(1)},
		"inverted region x": {Text: "a", Region: &Rect{MinX: 5, MaxX: 1, MinY: 0, MaxY: 1}},
		"inverted region y": {Text: "a", Region: &Rect{MinX: 0, MaxX: 1, MinY: 5, MaxY: 1}},
		"inverted timespan": {Text: "a", Time: &Timespan{Start: 7, End: 3}},
	}
	for name, q := range cases {
		if err := q.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, q)
		}
	}
	// Zero-area regions and single-timestamp spans are valid: Rect is
	// closed and Timespan inclusive.
	point := Query{Text: "a", Region: &Rect{MinX: 3, MinY: 3, MaxX: 3, MaxY: 3}, Time: &Timespan{Start: 5, End: 5}}
	if err := point.Validate(); err != nil {
		t.Fatalf("degenerate region/span rejected: %v", err)
	}
}

// mineKinds mines the collection with every pattern kind.
func mineKinds(t *testing.T, c *Collection) map[Kind]*PatternIndex {
	t.Helper()
	out := make(map[Kind]*PatternIndex)
	for _, kind := range Kinds() {
		ix, err := c.Mine(context.Background(), kind, nil)
		if err != nil {
			t.Fatalf("Mine(%v): %v", kind, err)
		}
		out[kind] = ix
	}
	return out
}

// contributingPatternIntersects is the brute-force oracle for the
// spatiotemporal post-filter: does some pattern of some query term both
// overlap the hit's document and intersect the filter region/span?
func contributingPatternIntersects(c *Collection, ix *PatternIndex, terms []string, h Hit, region *Rect, span *Timespan) bool {
	spanOK := func(start, end int) bool {
		return span == nil || (start <= span.End && span.Start <= end)
	}
	for _, term := range terms {
		switch ix.PatternKind() {
		case KindRegional:
			for _, w := range ix.RegionalPatterns(term) {
				if w.Overlaps(h.Doc.Stream, h.Doc.Time) &&
					(region == nil || w.Rect.Intersects(*region)) &&
					spanOK(w.Start, w.End) {
					return true
				}
			}
		case KindCombinatorial:
			for _, p := range ix.CombinatorialPatterns(term) {
				if !p.OverlapsMember(h.Doc.Stream, h.Doc.Time) || !spanOK(p.Start, p.End) {
					continue
				}
				if region == nil {
					return true
				}
				for _, x := range p.Streams {
					if region.Contains(c.Stream(x).Location) {
						return true
					}
				}
			}
		case KindTemporal:
			// Merged-stream intervals carry no geography: they span the
			// whole map, so any region intersects.
			for _, iv := range ix.TemporalBursts(term) {
				if h.Doc.Time >= iv.Start && h.Doc.Time <= iv.End && spanOK(iv.Start, iv.End) {
					return true
				}
			}
		}
	}
	return false
}

// TestRunFilteredMatchesBruteForce is the acceptance check of the
// redesign: a Region/Time-filtered Run returns exactly the subset of the
// unfiltered hits whose contributing patterns intersect the filter.
func TestRunFilteredMatchesBruteForce(t *testing.T) {
	c := twoBurstCollection(t)
	ctx := context.Background()
	queries := []struct {
		name   string
		region *Rect
		span   *Timespan
	}{
		{"andes region", &andesRegion, nil},
		{"japan region", &japanRegion, nil},
		{"andes time", nil, &andesTime},
		{"japan time", nil, &japanTime},
		{"andes region+time", &andesRegion, &andesTime},
		{"mismatched region+time", &andesRegion, &japanTime},
	}
	terms := []string{"earthquake", "rescue"}
	for kind, ix := range mineKinds(t, c) {
		base, err := ix.Query(ctx, Query{Text: "earthquake rescue", K: c.NumDocs()})
		if err != nil {
			t.Fatalf("%v: unfiltered Query: %v", kind, err)
		}
		if base.More {
			t.Fatalf("%v: K=NumDocs still reports more hits", kind)
		}
		for _, tc := range queries {
			got, err := ix.Query(ctx, Query{
				Text: "earthquake rescue", K: c.NumDocs(),
				Region: tc.region, Time: tc.span,
			})
			if err != nil {
				t.Fatalf("%v/%s: filtered Query: %v", kind, tc.name, err)
			}
			var want []Hit
			for _, h := range base.Hits {
				if contributingPatternIntersects(c, ix, terms, h, tc.region, tc.span) {
					want = append(want, h)
				}
			}
			if !reflect.DeepEqual(got.Hits, want) {
				t.Errorf("%v/%s: filtered hits = %d docs, brute force wants %d\n got: %+v\nwant: %+v",
					kind, tc.name, len(got.Hits), len(want), got.Hits, want)
			}
		}
	}
}

// TestRunFilterSeparatesWaves pins the headline behavior: region and
// timeframe filters isolate the right burst cluster.
func TestRunFilterSeparatesWaves(t *testing.T) {
	c := twoBurstCollection(t)
	ix, err := c.Mine(context.Background(), KindRegional, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, q Query, wantStreams map[string]bool) {
		t.Helper()
		page, err := ix.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(page.Hits) == 0 && len(wantStreams) > 0 {
			t.Fatalf("%s: no hits", name)
		}
		for _, h := range page.Hits {
			if !wantStreams[h.Stream] {
				t.Errorf("%s: hit from unexpected stream %s (doc %d, week %d)", name, h.Stream, h.Doc.ID, h.Doc.Time)
			}
		}
	}
	check("andes region", Query{Text: "earthquake", K: 100, Region: &andesRegion},
		map[string]bool{"lima": true, "quito": true})
	check("japan region", Query{Text: "earthquake", K: 100, Region: &japanRegion},
		map[string]bool{"tokyo": true, "osaka": true})
	check("andes time", Query{Text: "earthquake", K: 100, Time: &andesTime},
		map[string]bool{"lima": true, "quito": true})
	check("japan time", Query{Text: "earthquake", K: 100, Time: &japanTime},
		map[string]bool{"tokyo": true, "osaka": true})
	// A region and a timeframe that belong to different waves share no
	// contributing pattern.
	page, err := ix.Query(context.Background(), Query{Text: "earthquake", K: 100, Region: &japanRegion, Time: &andesTime})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Hits) != 0 {
		t.Errorf("mismatched region+time returned %d hits", len(page.Hits))
	}
}

// TestSearchMatchesRun: the legacy free-text entry point is a thin
// wrapper over Run and returns identical hits.
func TestSearchMatchesRun(t *testing.T) {
	c := twoBurstCollection(t)
	for kind, ix := range mineKinds(t, c) {
		e := ix.Engine()
		for _, q := range []string{"earthquake", "earthquake rescue", "nosuchterm", "", "and"} {
			for _, k := range []int{0, 1, 3, 1000} {
				legacy := e.Search(q, k)
				page, err := e.Run(context.Background(), Query{Text: q, K: k})
				if q == "" || k <= 0 {
					// Validate rejects these; the wrapper maps them to nil.
					if legacy != nil {
						t.Errorf("%v: Search(%q, %d) = %v, want nil", kind, q, k, legacy)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%v: Run(%q, %d): %v", kind, q, k, err)
				}
				if !reflect.DeepEqual(legacy, page.Hits) {
					t.Errorf("%v: Search(%q, %d) and Run disagree:\n%v\n%v", kind, q, k, legacy, page.Hits)
				}
			}
		}
	}
}

// TestRunTermsQuery: pre-split Terms behave like the equivalent Text.
func TestRunTermsQuery(t *testing.T) {
	c := twoBurstCollection(t)
	ix, err := c.Mine(context.Background(), KindRegional, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	text, err := ix.Query(ctx, Query{Text: "earthquake rescue", K: 50})
	if err != nil {
		t.Fatal(err)
	}
	terms, err := ix.Query(ctx, Query{Terms: []string{"earthquake", "rescue"}, K: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(text.Hits, terms.Hits) {
		t.Errorf("Terms query diverges from Text query:\n%v\n%v", text.Hits, terms.Hits)
	}
	// A multi-word entry contributes every token.
	multi, err := ix.Query(ctx, Query{Terms: []string{"earthquake rescue"}, K: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(text.Hits, multi.Hits) {
		t.Errorf("multi-word Terms entry diverges from Text query")
	}
	// Unknown and stopword-only terms match nothing, without error.
	for _, ts := range [][]string{{"nosuchterm"}, {"and"}, {"earthquake", "nosuchterm"}} {
		page, err := ix.Query(ctx, Query{Terms: ts, K: 50})
		if err != nil {
			t.Fatalf("Terms %v: %v", ts, err)
		}
		if len(page.Hits) != 0 {
			t.Errorf("Terms %v returned %d hits, want 0", ts, len(page.Hits))
		}
	}
}

// TestRunPagination: Offset/K window the ranked list without gaps or
// overlaps, More flags the existence of later pages, and an Offset past
// the result set yields an empty page.
func TestRunPagination(t *testing.T) {
	c := twoBurstCollection(t)
	ix, err := c.Mine(context.Background(), KindRegional, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	all, err := ix.Query(ctx, Query{Text: "earthquake", K: c.NumDocs()})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Hits) < 5 {
		t.Fatalf("need at least 5 hits to paginate, got %d", len(all.Hits))
	}
	var paged []Hit
	const k = 3
	for offset := 0; ; offset += k {
		page, err := ix.Query(ctx, Query{Text: "earthquake", K: k, Offset: offset})
		if err != nil {
			t.Fatal(err)
		}
		paged = append(paged, page.Hits...)
		wantMore := offset+len(page.Hits) < len(all.Hits)
		if page.More != wantMore {
			t.Fatalf("offset %d: More = %v, want %v", offset, page.More, wantMore)
		}
		if !page.More {
			break
		}
	}
	if !reflect.DeepEqual(paged, all.Hits) {
		t.Errorf("concatenated pages diverge from the full list: %d vs %d hits", len(paged), len(all.Hits))
	}
	// Offset past the end of the result set.
	past, err := ix.Query(ctx, Query{Text: "earthquake", K: k, Offset: len(all.Hits) + 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(past.Hits) != 0 || past.More {
		t.Errorf("offset past the results: page %+v, want empty and no more", past)
	}
}

// TestRunMinScore: the threshold prunes the tail, and one above every
// score empties the page.
func TestRunMinScore(t *testing.T) {
	c := twoBurstCollection(t)
	ix, err := c.Mine(context.Background(), KindRegional, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	all, err := ix.Query(ctx, Query{Text: "earthquake", K: c.NumDocs()})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Hits) < 2 {
		t.Fatalf("need hits, got %d", len(all.Hits))
	}
	top, bottom := all.Hits[0].Score, all.Hits[len(all.Hits)-1].Score
	if top <= bottom {
		t.Skipf("degenerate score distribution: top %v bottom %v", top, bottom)
	}
	mid := (top + bottom) / 2
	page, err := ix.Query(ctx, Query{Text: "earthquake", K: c.NumDocs(), MinScore: mid})
	if err != nil {
		t.Fatal(err)
	}
	var want []Hit
	for _, h := range all.Hits {
		if h.Score >= mid {
			want = append(want, h)
		}
	}
	if !reflect.DeepEqual(page.Hits, want) {
		t.Errorf("MinScore %v kept %d hits, want %d", mid, len(page.Hits), len(want))
	}
	empty, err := ix.Query(ctx, Query{Text: "earthquake", K: 10, MinScore: top + 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Hits) != 0 || empty.More {
		t.Errorf("MinScore above every hit: page %+v, want empty", empty)
	}
}

// TestRunDegenerateRegions: a zero-area region is a valid point filter —
// inside a burst's rectangle it keeps the wave, in empty space it
// excludes everything.
func TestRunDegenerateRegions(t *testing.T) {
	c := twoBurstCollection(t)
	ix, err := c.Mine(context.Background(), KindRegional, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	at := func(x, y float64) *Rect { return &Rect{MinX: x, MinY: y, MaxX: x, MaxY: y} }
	hit, err := ix.Query(ctx, Query{Text: "earthquake", K: 100, Region: at(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(hit.Hits) == 0 {
		t.Error("point region at lima matched nothing")
	}
	for _, h := range hit.Hits {
		if h.Stream == "tokyo" || h.Stream == "osaka" {
			t.Errorf("point region at lima returned %s hit", h.Stream)
		}
	}
	miss, err := ix.Query(ctx, Query{Text: "earthquake", K: 100, Region: at(50, 50)})
	if err != nil {
		t.Fatal(err)
	}
	if len(miss.Hits) != 0 {
		t.Errorf("point region in empty space returned %d hits", len(miss.Hits))
	}
}

// TestRunCancelled: a cancelled context aborts the query with ctx.Err().
func TestRunCancelled(t *testing.T) {
	c := twoBurstCollection(t)
	ix, err := c.Mine(context.Background(), KindRegional, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.Query(ctx, Query{Text: "earthquake", K: 5}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Query with cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestMineCancelled: a cancelled context makes Mine return promptly with
// ctx.Err() instead of an index.
func TestMineCancelled(t *testing.T) {
	c := twoBurstCollection(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, kind := range []Kind{KindRegional, KindCombinatorial, KindTemporal} {
		ix, err := c.Mine(ctx, kind, nil)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Mine(%v) with cancelled context: err = %v, want context.Canceled", kind, err)
		}
		if ix != nil {
			t.Errorf("Mine(%v) with cancelled context returned an index", kind)
		}
	}
}

// TestMineMatchesBatchMiners: mining one kind reproduces, bit for bit,
// that kind's member of the one-pass all-kinds miner under the same
// options — for every kind and option style.
func TestMineMatchesBatchMiners(t *testing.T) {
	c := twoBurstCollection(t)
	ctx := context.Background()
	cases := []struct {
		kind Kind
		opts *MineOptions
	}{
		{KindRegional, nil},
		{KindRegional, NewMineOptions(WithParallelism(1))},
		{KindRegional, &MineOptions{Regional: &RegionalOptions{Baseline: BaselineEWMA}}},
		{KindCombinatorial, nil},
		{KindCombinatorial, &MineOptions{Combinatorial: &CombinatorialOptions{MaxPatterns: 2}}},
		{KindTemporal, nil},
	}
	for _, tc := range cases {
		ix, err := c.Mine(ctx, tc.kind, tc.opts)
		if err != nil {
			t.Fatalf("Mine(%v): %v", tc.kind, err)
		}
		store, err := c.MineStore(ctx, tc.opts)
		if err != nil {
			t.Fatalf("MineStore: %v", err)
		}
		if ix.Fingerprint() != store.Index(tc.kind).Fingerprint() {
			t.Errorf("Mine(%v, %+v) fingerprint diverges from the all-kinds miner", tc.kind, tc.opts)
		}
	}
	if _, err := c.Mine(ctx, Kind(99), nil); err == nil {
		t.Error("Mine with unknown kind succeeded")
	}
}

func TestParseKind(t *testing.T) {
	for name, want := range map[string]Kind{
		"any":      KindAny,
		"regional": KindRegional, "stlocal": KindRegional,
		"combinatorial": KindCombinatorial, "stcomb": KindCombinatorial,
		"temporal": KindTemporal, "tb": KindTemporal,
	} {
		got, err := ParseKind(name)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("ParseKind accepted an unknown name")
	}
	if KindAny.String() != "any" || KindRegional.String() != "regional" ||
		KindCombinatorial.String() != "combinatorial" || KindTemporal.String() != "temporal" {
		t.Error("Kind.String mismatch")
	}
	// KindAny is the zero value: an absent kind means "every resident
	// index" on the Store surface.
	var zero Kind
	if zero != KindAny {
		t.Error("zero Kind is not KindAny")
	}
	// Mine needs a concrete kind.
	if _, err := twoBurstCollection(t).Mine(context.Background(), KindAny, nil); err == nil {
		t.Error("Mine accepted KindAny")
	}
}

// TestCombinatorialMinerOptions: the streaming miner honors the batch
// options it shares with STComb.
func TestCombinatorialMinerOptions(t *testing.T) {
	push := func(m *CombinatorialMiner) {
		t.Helper()
		for i := 0; i < 8; i++ {
			obs := []float64{1, 1}
			if i == 4 {
				obs = []float64{9, 9}
			}
			if err := m.Push(obs); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := NewCombinatorialMiner(2, nil)
	push(base)
	if len(base.Patterns(0)) == 0 {
		t.Fatal("nil-options miner found no patterns")
	}
	capped := NewCombinatorialMiner(2, &CombinatorialOptions{MaxPatterns: 1})
	push(capped)
	if got := len(capped.Patterns(0)); got > 1 {
		t.Errorf("MaxPatterns 1 returned %d patterns", got)
	}
	heavy := NewCombinatorialMiner(2, &CombinatorialOptions{MinIntervalMass: 1e9})
	push(heavy)
	if got := len(heavy.Patterns(0)); got != 0 {
		t.Errorf("MinIntervalMass 1e9 returned %d patterns, want 0", got)
	}
	strict := NewCombinatorialMiner(2, &CombinatorialOptions{MinIntervalScore: 1e9})
	push(strict)
	if got := len(strict.Patterns(0)); got != 0 {
		t.Errorf("MinIntervalScore 1e9 returned %d patterns, want 0", got)
	}
}
