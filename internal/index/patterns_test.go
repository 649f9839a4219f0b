package index

import (
	"sync"
	"testing"

	"stburst/internal/burst"
	"stburst/internal/core"
	"stburst/internal/geo"
	"stburst/internal/interval"
)

func windowFixture() map[int][]core.Window {
	return map[int][]core.Window{
		3: {{Rect: geo.Rect{MaxX: 2, MaxY: 2}, Streams: []int{0, 1}, Start: 1, End: 4, Score: 2.5}},
		1: {
			{Rect: geo.Rect{MaxX: 1, MaxY: 1}, Streams: []int{0}, Start: 0, End: 2, Score: 1.5},
			{Rect: geo.Rect{MinX: 3, MaxX: 5, MaxY: 1}, Streams: []int{2}, Start: 5, End: 6, Score: 0.5},
		},
	}
}

func TestPatternSetAccessors(t *testing.T) {
	s := NewWindowSet(windowFixture())
	if s.Kind() != KindRegional || s.Kind().String() != "regional" {
		t.Fatalf("kind: %v", s.Kind())
	}
	if got := s.Terms(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("terms should be ascending: %v", got)
	}
	if s.NumTerms() != 2 || s.NumPatterns() != 3 {
		t.Fatalf("counts: %d terms, %d patterns", s.NumTerms(), s.NumPatterns())
	}
	if len(s.Windows(1)) != 2 || len(s.Windows(3)) != 1 || s.Windows(99) != nil {
		t.Fatal("window lookup")
	}
	if s.Combs(1) != nil || s.Temporal(1) != nil {
		t.Fatal("wrong-kind accessors must return nil")
	}
	if s.AllWindows() == nil || s.AllCombs() != nil || s.AllTemporal() != nil {
		t.Fatal("All* accessors")
	}
}

func TestPatternSetKinds(t *testing.T) {
	cs := NewCombSet(map[int][]core.CombPattern{
		2: {{Streams: []int{0, 1}, Start: 1, End: 2, Score: 0.9,
			Intervals: []interval.Interval{{Start: 0, End: 2, Weight: 0.5, Stream: 0}, {Start: 1, End: 3, Weight: 0.4, Stream: 1}}}},
	})
	if cs.Kind() != KindCombinatorial || cs.NumPatterns() != 1 || len(cs.Combs(2)) != 1 {
		t.Fatalf("comb set: %+v", cs)
	}
	ts := NewTemporalSet(map[int][]burst.Interval{
		5: {{Start: 2, End: 4, Score: 0.7}},
		6: {{Start: 0, End: 1, Score: 0.2}, {Start: 3, End: 3, Score: 0.1}},
	})
	if ts.Kind() != KindTemporal || ts.NumPatterns() != 3 || len(ts.Temporal(6)) != 2 {
		t.Fatalf("temporal set: %+v", ts)
	}
	if KindTemporal.String() != "temporal" || PatternKind(42).String() != "unknown" {
		t.Fatal("kind strings")
	}
}

func TestFingerprintStableAndSensitive(t *testing.T) {
	a := NewWindowSet(windowFixture())
	b := NewWindowSet(windowFixture())
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical content must fingerprint equally")
	}
	if a.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint must be stable across calls")
	}
	// Any field perturbation must change the digest.
	perturbations := []func(m map[int][]core.Window){
		func(m map[int][]core.Window) { m[1][0].Score += 1e-12 },
		func(m map[int][]core.Window) { m[1][0].Start++ },
		func(m map[int][]core.Window) { m[1][0].Rect.MaxX += 0.5 },
		func(m map[int][]core.Window) { m[1][0].Streams = []int{1} },
		func(m map[int][]core.Window) { m[7] = m[3]; delete(m, 3) },
		func(m map[int][]core.Window) { m[1] = m[1][:1] },
	}
	for i, perturb := range perturbations {
		m := windowFixture()
		perturb(m)
		if NewWindowSet(m).Fingerprint() == a.Fingerprint() {
			t.Fatalf("perturbation %d did not change the fingerprint", i)
		}
	}
	// Kind participates in the digest: an empty window set and an empty
	// temporal set must differ.
	ew := NewWindowSet(nil)
	et := NewTemporalSet(nil)
	if ew.Fingerprint() == et.Fingerprint() {
		t.Fatal("kind must be part of the fingerprint")
	}
}

// TestFingerprintConcurrentFirstUse has 8 goroutines ask a fresh set for
// its fingerprint at once, and every caller must see the same one. A
// decoded set's digest was filled by its decode; a re-interned or a
// constructed set's is computed by whichever caller comes first.
func TestFingerprintConcurrentFirstUse(t *testing.T) {
	fresh := map[string]func() *PatternSet{
		"decoded": func() *PatternSet {
			snap, err := decodeSnapshot(encodeSnapshot(combSet(), snapshotTerm, 0))
			if err != nil {
				t.Fatal(err)
			}
			return snap.Set
		},
		"remapped": func() *PatternSet {
			snap, err := decodeSnapshot(encodeSnapshot(regionalSet(), snapshotTerm, 0))
			if err != nil {
				t.Fatal(err)
			}
			set, err := snap.Remap(snapshotLookup)
			if err != nil {
				t.Fatal(err)
			}
			return set
		},
		"constructed": func() *PatternSet { return NewWindowSet(windowFixture()) },
	}
	for name, mk := range fresh {
		t.Run(name, func(t *testing.T) {
			want := mk().Fingerprint()
			s := mk()
			got := make([]string, 8)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = s.Fingerprint()
				}()
			}
			wg.Wait()
			for i, fp := range got {
				if fp != want {
					t.Errorf("goroutine %d read fingerprint %s, want %s", i, fp, want)
				}
			}
		})
	}
}
