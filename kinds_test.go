package stburst

import (
	"bytes"
	"math"
	"testing"

	"stburst/internal/index"
)

// bruteForceBurstiness is the oracle for the engine-build loop: the best
// score among the term's patterns that overlap the document, with each
// kind's overlap notion spelled out over the typed accessors (which
// answer nil for the kinds the index does not hold).
func bruteForceBurstiness(ix *PatternIndex, term string, d Document) (float64, bool) {
	best, found := math.Inf(-1), false
	consider := func(score float64) {
		if !found || score > best {
			best, found = score, true
		}
	}
	for _, w := range ix.RegionalPatterns(term) {
		if w.Overlaps(d.Stream, d.Time) {
			consider(w.Score)
		}
	}
	for _, p := range ix.CombinatorialPatterns(term) {
		if p.OverlapsMember(d.Stream, d.Time) {
			consider(p.Score)
		}
	}
	for _, iv := range ix.TemporalBursts(term) {
		if d.Time >= iv.Start && d.Time <= iv.End {
			consider(iv.Score)
		}
	}
	return best, found
}

// TestKindTable is the conformance suite of the kind table
// (internal/index/kinds.go): every member of Kinds() must have a complete
// entry, checked through the generic loops that replaced the per-kind
// code. A kind added without finishing its entry — or without teaching
// the brute-force oracles here and in contributingPatternIntersects its
// overlap and intersection notions — fails it.
func TestKindTable(t *testing.T) {
	c := twoBurstCollection(t)
	dict := c.col.Dict()
	points := c.col.Points()
	filters := []struct {
		region *Rect
		span   *Timespan
	}{
		{nil, nil}, {&andesRegion, nil}, {&japanRegion, nil}, {nil, &andesTime},
		{nil, &japanTime}, {&andesRegion, &andesTime}, {&andesRegion, &japanTime},
	}
	if len(Kinds()) != index.NumKinds {
		t.Fatalf("Kinds() lists %d kinds, the table has %d", len(Kinds()), index.NumKinds)
	}
	for _, k := range Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			pk, ok := k.patternKind()
			if !ok || k == KindAny {
				t.Fatalf("%v names no concrete pattern kind", k)
			}
			desc := pk.Desc()
			if desc.ID != pk || kindOf(pk) != k || desc.Name == "" || desc.Paper == "" {
				t.Fatalf("descriptor %+v does not describe %v", desc, k)
			}
			for _, name := range []string{k.String(), desc.Name, desc.Paper} {
				if got, err := ParseKind(name); err != nil || got != k {
					t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, err, k)
				}
			}

			ix := mustMine(c, k, nil)
			if ix.PatternKind() != k || ix.NumPatterns() == 0 {
				t.Fatalf("mined a %v index with %d patterns", ix.PatternKind(), ix.NumPatterns())
			}

			// An empty and a mined set survive a one-member bundle ->
			// Remap unchanged.
			for _, set := range []*index.PatternSet{index.EmptySet(pk), ix.set} {
				var buf bytes.Buffer
				b := index.Bundle{Sets: []*index.PatternSet{set}, Shard: index.ShardInfo{Shards: 1}}
				if err := b.Write(&buf, dict.Term); err != nil {
					t.Fatal(err)
				}
				read, err := index.ReadStore(&buf)
				if err != nil {
					t.Fatalf("reading back %d patterns: %v", set.NumPatterns(), err)
				}
				got, err := read.Snaps[0].Remap(dict.Lookup)
				if err != nil {
					t.Fatal(err)
				}
				if got.Kind() != pk || got.Fingerprint() != set.Fingerprint() {
					t.Errorf("%d patterns: round trip changed kind or fingerprint", set.NumPatterns())
				}
				if err := got.Validate(c.NumStreams(), c.Timeline()); err != nil {
					t.Errorf("round-tripped set does not fit its own collection: %v", err)
				}
			}

			// The two hot loops agree with the brute-force oracles on
			// every (term, document) pair, and the pattern listing with
			// the filter's notion of intersection.
			coverage := ix.set.Coverage(c.NumStreams(), c.Timeline())
			for _, id := range ix.set.Terms() {
				term := dict.Term(id)
				coverage.Paint(id)
				for _, f := range filters {
					pass := ix.set.Filter(points, f.region, f.span)
					for doc := 0; doc < c.NumDocs(); doc++ {
						d := c.Doc(doc)
						want := contributingPatternIntersects(c, ix, []string{term}, Hit{Doc: d}, f.region, f.span)
						if got := pass(id, d.Stream, d.Time); got != want {
							t.Fatalf("Filter(%q, doc %d, %+v %+v) = %v, brute force says %v", term, doc, f.region, f.span, got, want)
						}
					}
					listed := ix.Patterns(term, f.region, f.span)
					stored := len(ix.set.Views(id))
					if n := len(listed); n > stored || (f.region == nil && f.span == nil && n != stored) {
						t.Fatalf("Patterns(%q, %+v %+v) lists %d of %d stored patterns", term, f.region, f.span, n, stored)
					}
					for _, p := range listed {
						if p.Kind != k || (p.Rect != nil) != desc.Rect || (f.span != nil && !f.span.Overlaps(p.Start, p.End)) {
							t.Fatalf("Patterns(%q, %+v %+v) listed %+v", term, f.region, f.span, p)
						}
					}
				}
				for doc := 0; doc < c.NumDocs(); doc++ {
					d := c.Doc(doc)
					wantScore, wantOK := bruteForceBurstiness(ix, term, d)
					if score, ok := coverage.At(d.Stream, d.Time); ok != wantOK || (ok && score != wantScore) {
						t.Fatalf("Coverage.At(%q, doc %d) = %v, %v; brute force says %v, %v", term, doc, score, ok, wantScore, wantOK)
					}
				}
			}
		})
	}
}
