package index

import (
	"math"
	"testing"

	"stburst/internal/burst"
	"stburst/internal/core"
	"stburst/internal/interval"
)

// scanOf is the linear scan Coverage replaced, kept as its oracle: for
// every (term, document) it visits all of the term's patterns in stored
// order and keeps the best score among those covers accepts.
func scanOf[P any](k *kindOf[P], s *PatternSet) func(term, stream, time int) (float64, bool) {
	byTerm := patterns[P](s)
	return func(term, stream, time int) (float64, bool) {
		best, found := math.Inf(-1), false
		ps := byTerm[term]
		for i := range ps {
			if k.covers(&ps[i], stream, time) {
				if sc := k.score(&ps[i]); !found || sc > best {
					best, found = sc, true
				}
			}
		}
		return best, found
	}
}

// scanBurstiness dispatches scanOf on the set's kind.
func scanBurstiness(s *PatternSet) func(term, stream, time int) (float64, bool) {
	switch k := kinds[s.kind].(type) {
	case *kindOf[core.Window]:
		return scanOf(k, s)
	case *kindOf[core.CombPattern]:
		return scanOf(k, s)
	case *kindOf[burst.Interval]:
		return scanOf(k, s)
	}
	panic("scanBurstiness: kind missing from the switch")
}

// assertCoverageMatchesScan paints every term of the set (and one term it
// lacks) and compares each cell of the numStreams × timeline grid with
// the linear scan: found-ness, and the score's bits when found.
func assertCoverageMatchesScan(t *testing.T, s *PatternSet, numStreams, timeline int) {
	t.Helper()
	cov := s.Coverage(numStreams, timeline)
	scan := scanBurstiness(s)
	absent := 0
	for _, term := range s.Terms() {
		absent = max(absent, term+1)
	}
	for _, term := range append(s.Terms(), absent) {
		cov.Paint(term)
		for x := 0; x < numStreams; x++ {
			for tm := 0; tm < timeline; tm++ {
				got, gotOK := cov.At(x, tm)
				want, wantOK := scan(term, x, tm)
				if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v term %d cell (%d, %d): Coverage (%v, %v), scan (%v, %v)",
						s.Kind(), term, x, tm, got, gotOK, want, wantOK)
				}
			}
		}
	}
}

// TestCoverageMatchesScan runs the oracle over the hand-made sets of every
// kind, on a grid larger than any pattern needs and on one that clips
// them: a run reaching past the grid paints only the cells inside it.
func TestCoverageMatchesScan(t *testing.T) {
	for name, set := range allKindSets() {
		t.Run(name, func(t *testing.T) {
			assertCoverageMatchesScan(t, set, 7, 32)
			assertCoverageMatchesScan(t, set, 2, 5)
		})
	}
}

// fuzzBytes hands out the fuzzer's input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// span draws an inclusive timeframe inside [0, timeline).
func (b *fuzzBytes) span(timeline int) (int, int) {
	lo := b.next() % timeline
	return lo, lo + b.next()%(timeline-lo)
}

// streams draws a non-empty strictly ascending subset of [0, n).
func (b *fuzzBytes) streams(n int) []int {
	var out []int
	for x := 0; x < n; x++ {
		if b.next()%3 == 0 {
			out = append(out, x)
		}
	}
	if len(out) == 0 {
		out = []int{b.next() % n}
	}
	return out
}

// fuzzScores are tie-heavy on purpose: equal scores, both zeros and
// negative scores are where visit order could show.
var fuzzScores = []float64{1, 1, 2.5, 0, math.Copysign(0, -1), -1, -3.25, 1e300, -1e-300, 0.1 + 0.2, 7}

func (b *fuzzBytes) score() float64 {
	v := b.next()
	if v < 0xf0 {
		return fuzzScores[v%len(fuzzScores)]
	}
	var bits uint64
	for i := 0; i < 8; i++ {
		bits = bits<<8 | uint64(b.next())
	}
	if f := math.Float64frombits(bits); !math.IsNaN(f) && !math.IsInf(f, 0) {
		return f
	}
	return 0
}

// fuzzSet draws a set of the given kind that Validate accepts for the
// numStreams × timeline shape: a few terms with a few patterns each.
func fuzzSet(b *fuzzBytes, kind PatternKind, numStreams, timeline int) *PatternSet {
	terms := 1 + b.next()%3
	switch kind {
	case KindRegional:
		m := map[int][]core.Window{}
		for t := 0; t < terms; t++ {
			for n := 1 + b.next()%6; n > 0; n-- {
				start, end := b.span(timeline)
				m[t] = append(m[t], core.Window{Streams: b.streams(numStreams), Start: start, End: end, Score: b.score()})
			}
		}
		return NewWindowSet(m)
	case KindCombinatorial:
		m := map[int][]core.CombPattern{}
		for t := 0; t < terms; t++ {
			for n := 1 + b.next()%6; n > 0; n-- {
				p := core.CombPattern{Streams: b.streams(numStreams), Score: b.score()}
				p.Start, p.End = b.span(timeline)
				for _, x := range p.Streams {
					start, end := b.span(timeline)
					p.Intervals = append(p.Intervals, interval.Interval{Stream: x, Start: start, End: end, Weight: 1})
					// Now and then the stream holds a second member interval,
					// starting no earlier: OverlapsMember scans every one.
					if b.next()%4 == 0 {
						start += b.next() % (timeline - start)
						end = start + b.next()%(timeline-start)
						p.Intervals = append(p.Intervals, interval.Interval{Stream: x, Start: start, End: end, Weight: 1})
					}
				}
				m[t] = append(m[t], p)
			}
		}
		return NewCombSet(m)
	default:
		m := map[int][]burst.Interval{}
		for t := 0; t < terms; t++ {
			for n := 1 + b.next()%6; n > 0; n-- {
				start, end := b.span(timeline)
				m[t] = append(m[t], burst.Interval{Start: start, End: end, Score: b.score()})
			}
		}
		return NewTemporalSet(m)
	}
}

// FuzzCoverage: on random valid sets of every kind — tied, zero and
// negative scores, overlapping patterns, streams holding two member
// intervals — the painted grid equals the linear scan cell for cell,
// score bits and found-ness, including after the previous term's paint.
func FuzzCoverage(f *testing.F) {
	f.Add([]byte{0, 3, 9})
	f.Add([]byte{1, 5, 16, 2, 4, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{2, 0, 47, 2, 5, 1, 1, 1, 3, 0, 9, 4, 4, 4})
	f.Add([]byte{1, 2, 3, 1, 3, 0, 0, 0, 2, 3, 6, 0, 0, 0, 1, 1, 5, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		kind := PatternKind(b.next() % NumKinds)
		numStreams, timeline := 1+b.next()%6, 1+b.next()%24
		set := fuzzSet(&b, kind, numStreams, timeline)
		if err := set.Validate(numStreams, timeline); err != nil {
			t.Fatalf("generated an invalid %v set: %v", kind, err)
		}
		assertCoverageMatchesScan(t, set, numStreams, timeline)
	})
}
