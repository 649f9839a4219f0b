package index

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"stburst/internal/burst"
	"stburst/internal/core"
	"stburst/internal/geo"
	"stburst/internal/interval"
)

// snapshotTerm resolves test term IDs to deterministic strings.
func snapshotTerm(id int) string { return fmt.Sprintf("term%03d", id) }

// snapshotLookup inverts snapshotTerm over a fixed ID universe.
func snapshotLookup(term string) (int, bool) {
	var id int
	if _, err := fmt.Sscanf(term, "term%03d", &id); err != nil {
		return 0, false
	}
	return id, true
}

func regionalSet() *PatternSet {
	return NewWindowSet(map[int][]core.Window{
		2: {
			{Rect: geo.Rect{MinX: -1.5, MinY: 0, MaxX: 3.25, MaxY: 8}, Streams: []int{0, 2, 5}, Start: 3, End: 9, Score: 12.5},
			{Rect: geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, Streams: []int{1}, Start: 0, End: 0, Score: 0.125},
		},
		7: {
			{Rect: geo.Rect{MinX: -10, MinY: -20, MaxX: -5, MaxY: -15}, Streams: []int{3, 4}, Start: 11, End: 30, Score: 77.75},
		},
	})
}

func combSet() *PatternSet {
	return NewCombSet(map[int][]core.CombPattern{
		0: {
			{
				Streams: []int{1, 4}, Start: 5, End: 8, Score: 9.5,
				Intervals: []interval.Interval{
					{Stream: 1, Start: 4, End: 9, Weight: 5.25},
					{Stream: 4, Start: 5, End: 8, Weight: 4.25},
				},
			},
		},
		12: {
			{Streams: []int{0}, Start: 2, End: 2, Score: 1.5,
				Intervals: []interval.Interval{{Stream: 0, Start: 2, End: 2, Weight: 1.5}}},
			{Streams: []int{0, 1, 2}, Start: 6, End: 7, Score: 30,
				Intervals: []interval.Interval{
					{Stream: 0, Start: 6, End: 7, Weight: 10},
					{Stream: 1, Start: 5, End: 7, Weight: 12},
					{Stream: 2, Start: 6, End: 9, Weight: 8},
				}},
		},
	})
}

func temporalSet() *PatternSet {
	return NewTemporalSet(map[int][]burst.Interval{
		1: {{Start: 0, End: 4, Score: 2.5}, {Start: 9, End: 12, Score: 4.75}},
		3: {{Start: 20, End: 21, Score: 0.5}},
		9: {{Start: 7, End: 7, Score: 123.0625}},
	})
}

func allKindSets() map[string]*PatternSet {
	return map[string]*PatternSet{
		"regional":      regionalSet(),
		"combinatorial": combSet(),
		"temporal":      temporalSet(),
	}
}

// TestSnapshotRoundTrip saves and reloads a set of every kind and checks
// the canonical fingerprint survives byte for byte, before and after
// remapping through an identity dictionary.
func TestSnapshotRoundTrip(t *testing.T) {
	for name, set := range allKindSets() {
		t.Run(name, func(t *testing.T) {
			full := encodeSnapshot(set, snapshotTerm, 0)
			snap, err := decodeSnapshot(full)
			if err != nil {
				t.Fatalf("decodeSnapshot: %v", err)
			}
			if got, want := snap.Set.Fingerprint(), set.Fingerprint(); got != want {
				t.Errorf("decoded fingerprint %s, want %s", got, want)
			}
			if got, want := snap.Set.Kind(), set.Kind(); got != want {
				t.Errorf("decoded kind %v, want %v", got, want)
			}
			if got, want := snap.Set.NumPatterns(), set.NumPatterns(); got != want {
				t.Errorf("decoded %d patterns, want %d", got, want)
			}
			for i, id := range set.Terms() {
				if want := snapshotTerm(id); snap.Terms[i] != want {
					t.Errorf("term %d decoded as %q, want %q", id, snap.Terms[i], want)
				}
			}
			remapped, err := snap.Remap(snapshotLookup)
			if err != nil {
				t.Fatalf("Remap: %v", err)
			}
			if got, want := remapped.Fingerprint(), set.Fingerprint(); got != want {
				t.Errorf("remapped fingerprint %s, want %s", got, want)
			}
		})
	}
}

// TestSnapshotRejectsTruncation checks that every proper prefix of a
// valid snapshot fails to load.
func TestSnapshotRejectsTruncation(t *testing.T) {
	for name, set := range allKindSets() {
		t.Run(name, func(t *testing.T) {
			full := encodeSnapshot(set, snapshotTerm, 0)
			for n := 0; n < len(full); n++ {
				if _, err := decodeSnapshot(full[:n]); err == nil {
					t.Fatalf("truncation to %d of %d bytes loaded without error", n, len(full))
				}
			}
		})
	}
}

// TestSnapshotRejectsCorruption flips one byte at a time through a valid
// snapshot of every kind and checks that no altered stream loads: either
// decoding fails outright, or the stream checksum / canonical fingerprint
// verification catches the damage — including flips inside term strings,
// which only the checksum covers.
func TestSnapshotRejectsCorruption(t *testing.T) {
	for name, set := range allKindSets() {
		t.Run(name, func(t *testing.T) {
			full := encodeSnapshot(set, snapshotTerm, 0)
			for i := range full {
				corrupt := bytes.Clone(full)
				corrupt[i] ^= 0xff
				if _, err := decodeSnapshot(corrupt); err == nil {
					t.Fatalf("flipping byte %d of %d loaded without error", i, len(full))
				}
			}
		})
	}
}

// TestSnapshotRejectsTrailingData checks extra bytes after the footer are
// rejected.
func TestSnapshotRejectsTrailingData(t *testing.T) {
	full := encodeSnapshot(temporalSet(), snapshotTerm, 0)
	if _, err := decodeSnapshot(append(full, 0)); err == nil {
		t.Fatal("snapshot with trailing garbage loaded without error")
	}
}

// TestSnapshotRejectsHeaderDamage covers the explicit header checks: bad
// magic, unsupported version, unknown kind.
func TestSnapshotRejectsHeaderDamage(t *testing.T) {
	full := encodeSnapshot(temporalSet(), snapshotTerm, 0)

	badMagic := bytes.Clone(full)
	badMagic[0] = 'X'
	if _, err := decodeSnapshot(badMagic); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: got %v, want magic error", err)
	}

	badVersion := bytes.Clone(full)
	badVersion[8] = 99
	if _, err := decodeSnapshot(badVersion); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version: got %v, want version error", err)
	}

	badKind := bytes.Clone(full)
	badKind[12] = 42
	if _, err := decodeSnapshot(badKind); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Errorf("bad kind: got %v, want kind error", err)
	}
}

// TestSnapshotRejectsEmptyInput checks the degenerate streams.
func TestSnapshotRejectsEmptyInput(t *testing.T) {
	if _, err := decodeSnapshot(nil); err == nil {
		t.Error("empty input loaded without error")
	}
	if _, err := decodeSnapshot([]byte("not a snapshot at all")); err == nil {
		t.Error("junk input loaded without error")
	}
}

// TestSnapshotEmptySet round-trips an index with no patterns at all.
func TestSnapshotEmptySet(t *testing.T) {
	set := NewTemporalSet(map[int][]burst.Interval{})
	full := encodeSnapshot(set, snapshotTerm, 0)
	snap, err := decodeSnapshot(full)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Set.NumTerms() != 0 || snap.Set.NumPatterns() != 0 {
		t.Errorf("empty set decoded as %d terms / %d patterns", snap.Set.NumTerms(), snap.Set.NumPatterns())
	}
	if got, want := snap.Set.Fingerprint(), set.Fingerprint(); got != want {
		t.Errorf("fingerprint %s, want %s", got, want)
	}
}

// TestSnapshotRemapUnknownTerm checks that a dictionary missing a stored
// term rejects the snapshot instead of silently dropping patterns.
func TestSnapshotRemapUnknownTerm(t *testing.T) {
	full := encodeSnapshot(regionalSet(), snapshotTerm, 0)
	snap, err := decodeSnapshot(full)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Remap(func(string) (int, bool) { return 0, false }); err == nil {
		t.Error("remap through an empty dictionary succeeded; want error")
	}
	// Two stored terms colliding on one dictionary ID must also fail.
	if _, err := snap.Remap(func(string) (int, bool) { return 0, true }); err == nil {
		t.Error("remap with colliding IDs succeeded; want error")
	}
}

// TestSnapshotValidate checks the structural-fit validation that guards
// the serving path: stream indices and timestamps must fit the target
// collection's shape.
func TestSnapshotValidate(t *testing.T) {
	cases := []struct {
		name              string
		set               *PatternSet
		streams, timeline int
		ok                bool
	}{
		{"regional fits", regionalSet(), 6, 31, true},
		{"regional too few streams", regionalSet(), 5, 31, false},
		{"regional timeline too short", regionalSet(), 6, 30, false},
		{"comb fits", combSet(), 5, 10, true},
		{"comb interval stream out of range", combSet(), 4, 10, false},
		{"comb interval end out of range", combSet(), 5, 9, false},
		{"temporal fits", temporalSet(), 1, 22, true},
		{"temporal end out of range", temporalSet(), 1, 21, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.set.Validate(tc.streams, tc.timeline)
			if tc.ok && err != nil {
				t.Errorf("Validate(%d, %d) = %v, want nil", tc.streams, tc.timeline, err)
			}
			if !tc.ok && err == nil {
				t.Errorf("Validate(%d, %d) = nil, want error", tc.streams, tc.timeline)
			}
		})
	}
}

// TestValidateRejectsNonFiniteScore: a NaN score would be kept by a scan
// that visits it first and ignored by a Coverage cell, and an infinite
// one is no burstiness; a loaded set holds neither.
func TestValidateRejectsNonFiniteScore(t *testing.T) {
	for _, score := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		sets := map[string]*PatternSet{
			"regional": NewWindowSet(map[int][]core.Window{0: {{Streams: []int{0}, Start: 1, End: 2, Score: score}}}),
			"combinatorial": NewCombSet(map[int][]core.CombPattern{0: {{Streams: []int{0}, Start: 1, End: 2, Score: score,
				Intervals: []interval.Interval{{Stream: 0, Start: 1, End: 2, Weight: 1}}}}}),
			"temporal": NewTemporalSet(map[int][]burst.Interval{0: {{Start: 1, End: 2, Score: score}}}),
		}
		for name, set := range sets {
			if err := set.Validate(3, 5); err == nil {
				t.Errorf("%s: Validate accepted score %v", name, score)
			}
		}
	}
}

// TestValidateRejectsUnsortedStreams: ContainsStream binary-searches a
// pattern's member streams, so they must be strictly ascending.
func TestValidateRejectsUnsortedStreams(t *testing.T) {
	for _, streams := range [][]int{{2, 0}, {1, 1}} {
		win := NewWindowSet(map[int][]core.Window{0: {{Streams: streams, Start: 1, End: 2, Score: 1}}})
		comb := NewCombSet(map[int][]core.CombPattern{0: {{Streams: streams, Start: 1, End: 2, Score: 1}}})
		for _, set := range []*PatternSet{win, comb} {
			if err := set.Validate(3, 5); err == nil {
				t.Errorf("%v: Validate accepted streams %v", set.Kind(), streams)
			}
		}
	}
}

// TestValidateRejectsUnsortedIntervals: OverlapsMember searches a
// combinatorial pattern's member intervals by stream, so they must be
// sorted by (Stream, Start).
func TestValidateRejectsUnsortedIntervals(t *testing.T) {
	for _, ivs := range [][]interval.Interval{
		{{Stream: 2, Start: 1, End: 2}, {Stream: 0, Start: 1, End: 2}},
		{{Stream: 1, Start: 3, End: 4}, {Stream: 1, Start: 0, End: 1}},
	} {
		set := NewCombSet(map[int][]core.CombPattern{0: {{Streams: []int{0, 1, 2}, Start: 1, End: 1, Score: 1, Intervals: ivs}}})
		if err := set.Validate(3, 5); err == nil {
			t.Errorf("Validate accepted intervals %+v", ivs)
		}
	}
}

// TestSnapshotRemapPermutation remaps into a shuffled dictionary and
// checks patterns land under the right terms.
func TestSnapshotRemapPermutation(t *testing.T) {
	set := regionalSet()
	full := encodeSnapshot(set, snapshotTerm, 0)
	snap, err := decodeSnapshot(full)
	if err != nil {
		t.Fatal(err)
	}
	// Writer IDs 2 and 7 land on 100+id in the serving dictionary.
	remapped, err := snap.Remap(func(term string) (int, bool) {
		id, ok := snapshotLookup(term)
		return id + 100, ok
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range set.Terms() {
		got := remapped.Windows(id + 100)
		want := set.Windows(id)
		if len(got) != len(want) {
			t.Fatalf("term %d: remapped to %d windows, want %d", id, len(got), len(want))
		}
		for i := range want {
			if got[i].Score != want[i].Score || got[i].Start != want[i].Start {
				t.Errorf("term %d window %d: got %+v, want %+v", id, i, got[i], want[i])
			}
		}
	}
}

// TestValidateRejectsNonFiniteGeometry: a NaN rectangle corner makes
// every region overlap test false, and neither a non-finite corner nor a
// non-finite interval weight has a JSON form; a loaded set holds neither,
// and the refusal names which.
func TestValidateRejectsNonFiniteGeometry(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for corner := 0; corner < 4; corner++ {
			r := geo.Rect{MaxX: 1, MaxY: 1}
			*[]*float64{&r.MinX, &r.MinY, &r.MaxX, &r.MaxY}[corner] = bad
			set := NewWindowSet(map[int][]core.Window{0: {{Rect: r, Streams: []int{0}, Start: 1, End: 2, Score: 1}}})
			if err := set.Validate(3, 5); err == nil || !strings.Contains(err.Error(), "rect") {
				t.Errorf("Validate of rect %+v = %v, want an error naming the rect", r, err)
			}
		}
		set := NewCombSet(map[int][]core.CombPattern{0: {{Streams: []int{0, 1}, Start: 1, End: 2, Score: 1,
			Intervals: []interval.Interval{{Stream: 0, Start: 1, End: 2, Weight: 1}, {Stream: 1, Start: 1, End: 2, Weight: bad}}}}})
		if err := set.Validate(3, 5); err == nil || !strings.Contains(err.Error(), "weight") {
			t.Errorf("Validate of interval weight %v = %v, want an error naming the weight", bad, err)
		}
	}
}
