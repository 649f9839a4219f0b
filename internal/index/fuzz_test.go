package index

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"
)

// allocBound is what one decode of n input bytes may allocate: the
// documented caps a length prefix can claim before its bytes are read
// (2^20 subscription slots, one 1 MiB record or term string, 4096-element
// preallocations) plus decoded structures proportional to the input.
func allocBound(n int) uint64 { return 64<<20 + 256*uint64(n) }

// decodeBounded runs decode and fails the test when it allocated past
// allocBound — the "corrupted prefixes hit a decode error, never a huge
// allocation" contract of both readers.
func decodeBounded(t *testing.T, n int, decode func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > allocBound(n) {
		t.Fatalf("decoding %d bytes allocated %d, past the %d the caps allow", n, got, allocBound(n))
	}
}

// addByteFlips seeds f with a valid stream, a truncation of it and one
// flipped byte per position — the fixtures of the round-trip, truncation
// and byte-flip tests.
func addByteFlips(f *testing.F, full []byte) {
	f.Add(full)
	f.Add(full[:len(full)/2])
	for i := range full {
		flipped := bytes.Clone(full)
		flipped[i] ^= 0xff
		f.Add(flipped)
	}
}

// FuzzReadSnapshot: whatever the bytes, the member decoder neither panics
// nor allocates past its caps, and a stream it accepts re-encodes to the
// same bytes — with one member version there is one encoding of a set.
func FuzzReadSnapshot(f *testing.F) {
	for _, set := range orderedSets() {
		var buf bytes.Buffer
		if err := writeSnapshot(&buf, set, snapshotTerm, 42); err != nil {
			f.Fatal(err)
		}
		addByteFlips(f, buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var snap *Snapshot
		var err error
		decodeBounded(t, len(data), func() { snap, err = ReadSnapshot(bytes.NewReader(data)) })
		if err != nil {
			return
		}
		// The generation is the one header field the decoder skips; an
		// accepted stream is long enough to hold it.
		gen := binary.LittleEndian.Uint64(data[16:24])
		var again bytes.Buffer
		if err := writeSnapshot(&again, snap.Set, termTable(snap), gen); err != nil {
			t.Fatalf("re-encoding an accepted stream: %v", err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("accepted %d-byte stream re-encodes to %d different bytes", len(data), again.Len())
		}
	})
}

// FuzzReadBundle is FuzzReadSnapshot one level up: no panic, bounded
// allocation, and an accepted bundle re-encodes to the same bytes — the
// property four header versions could not have (a version-1 input came
// back as version 2).
func FuzzReadBundle(f *testing.F) {
	addByteFlips(f, bundleBytes(f, goldenBundle()))
	addByteFlips(f, writeBundleBytes(f, []*PatternSet{temporalSet()}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var b *Bundle
		var err error
		decodeBounded(t, len(data), func() { b, err = ReadStore(bytes.NewReader(data)) })
		if err != nil {
			return
		}
		for _, snap := range b.Snaps {
			b.Sets = append(b.Sets, snap.Set)
		}
		var again bytes.Buffer
		if err := b.Write(&again, termTable(b.Snaps...)); err != nil {
			t.Fatalf("re-encoding an accepted bundle: %v", err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("accepted %d-byte bundle re-encodes to %d different bytes", len(data), again.Len())
		}
	})
}

// FuzzCursor: on any index of at most 4 terms × 32 docs with scores from
// {0.5, 1, …, 4} — exact in float64, and tie-heavy — a full Next drain is
// the naive oracle's ranking, Page over Where is the matching window of
// that drain through a filter, TopK(k) is a prefix of every longer
// TopK, and an index refreshed by With drains as the from-scratch one.
func FuzzCursor(f *testing.F) {
	f.Add([]byte{1, 0, 3, 2, 0x0f, 0x0b, 0x0c, 0x08, 0x0f, 0x09, 0x0f})
	f.Add(bytes.Repeat([]byte{3, 2, 5, 1, 0x0b, 0x0f, 0x09, 0x0e}, 16))
	f.Add(append([]byte{0x52, 1, 6, 2}, bytes.Repeat([]byte{0x0c, 0x09, 0x00, 0x0f}, 24)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		// Header: term count, offset, k, minScore; then one byte per
		// (term, doc) slot: bit 3 says the posting exists, bits 0-2 its
		// score in halves.
		terms := make([]int, 1+int(data[0])%4)
		for i := range terms {
			terms[i] = i
		}
		offset, k, minScore := int(data[1]%16), int(data[2]%16), float64(data[3]%17)/2
		lists := make([][]Posting, len(terms))
		for slot, b := range data[4:min(len(data), 4+32*len(terms))] {
			if b&8 != 0 {
				lists[slot/32] = append(lists[slot/32], Posting{Doc: slot % 32, Score: float64(b&7+1) / 2})
			}
		}
		ix := (*Index)(nil).With(terms, func(t int) []Posting { return lists[t] })

		c := ix.Cursor(terms)
		var drain []Result
		for r, ok := c.Next(); ok; r, ok = c.Next() {
			drain = append(drain, r)
		}
		if want := ix.TopKNaive(terms, math.MaxInt); !slices.Equal(drain, want) {
			t.Fatalf("drain %v, naive %v", drain, want)
		}
		for _, pass := range []func(doc int) bool{nil, func(doc int) bool { return doc%2 == 0 }} {
			var survivors []Result
			for _, r := range drain {
				if r.Score >= minScore && (pass == nil || pass(r.Doc)) {
					survivors = append(survivors, r)
				}
			}
			want := survivors[min(offset, len(survivors)):min(offset+k, len(survivors))]
			ctx := context.Background()
			hits, more, err := Page(ctx, ix.Cursor(terms).Where(ctx, minScore, pass), offset, k)
			if err != nil || !slices.Equal(hits, want) || more != (len(survivors) > offset+k) {
				t.Fatalf("Page(%d, %d, %v) = %v, %v, %v; want %v of %d survivors", offset, k, minScore, hits, more, err, want, len(survivors))
			}
		}
		for n := 0; n <= len(drain)+1; n++ {
			if got := ix.TopK(terms, n, MissingExcludes); !slices.Equal(got, drain[:min(n, len(drain))]) {
				t.Fatalf("TopK(%d) = %v, not a prefix of %v", n, got, drain)
			}
		}
		// A prior generation whose lists differ on the terms header bits
		// 4-7 pick — every score raised by 0.5, an empty list given one
		// posting — drains as ix does once With rebuilds exactly those.
		var dirty []int
		for _, t := range terms {
			if data[0]>>(4+t)&1 != 0 {
				dirty = append(dirty, t)
			}
		}
		prior := (*Index)(nil).With(terms, func(t int) []Posting {
			if !slices.Contains(dirty, t) {
				return lists[t]
			}
			stale := []Posting{{Doc: 0, Score: 0.5}}
			if len(lists[t]) > 0 {
				stale = slices.Clone(lists[t])
			}
			for i := range stale {
				stale[i].Score += 0.5
			}
			return stale
		})
		var again []Result
		c = prior.With(dirty, func(t int) []Posting { return lists[t] }).Cursor(terms)
		for r, ok := c.Next(); ok; r, ok = c.Next() {
			again = append(again, r)
		}
		if !slices.Equal(again, drain) {
			t.Fatalf("refreshed drain %v, from-scratch %v (dirty %v)", again, drain, dirty)
		}
	})
}

// termTable resolves decoded members' term IDs: one dictionary wrote
// every member of a bundle, so their term tables merge into the one
// resolver the encoders take.
func termTable(snaps ...*Snapshot) func(id int) string {
	terms := map[int]string{}
	for _, snap := range snaps {
		for i, id := range snap.Set.Terms() {
			terms[id] = snap.Terms[i]
		}
	}
	return func(id int) string { return terms[id] }
}

// FuzzSegmentOrder: whatever ties a posting list holds, With's rank
// order is the comparator sort's (slices.SortFunc with rankCmp), bit for
// bit. Byte 0 picks the scores — drawn from an eight-value palette, so
// equal scores land across the list; one score for every posting, the
// single-bucket case; or every score distinct — and byte 1 rotates the
// palette of specials (0 and -0, which tie; NaN, which ties nothing;
// +Inf; the smallest subnormal; neighbouring floats). Each further byte
// is one posting: its doc gap and palette slot.
func FuzzSegmentOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0x01, 0x22, 0x43, 0x04, 0x05, 0x26, 0x07, 0x00, 0x11})
	f.Add([]byte{1, 3, 0x01, 0x02, 0x03})
	f.Add(append([]byte{2, 0}, bytes.Repeat([]byte{0x21, 0x07}, 64)...))
	palette := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), 5e-324, 1, math.Nextafter(1, 2), 0.5}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		var byDoc []Posting
		doc := 0
		for i, b := range data[2:] {
			doc += 1 + int(b>>3)
			score := palette[(int(b&7)+int(data[1]))%len(palette)]
			switch data[0] % 3 {
			case 1:
				score = palette[int(data[1])%len(palette)]
			case 2:
				score = float64((i*7919)%len(data)) + float64(i)/float64(len(data))
			}
			byDoc = append(byDoc, Posting{Doc: doc, Score: score})
		}
		got := (*Index)(nil).With([]int{0}, func(int) []Posting { return byDoc }).Postings(0)
		want := slices.Clone(byDoc)
		slices.SortFunc(want, func(a, b Posting) int { return rankCmp(Result(a), Result(b)) })
		same := func(a, b Posting) bool {
			return a.Doc == b.Doc && math.Float64bits(a.Score) == math.Float64bits(b.Score)
		}
		if !slices.EqualFunc(got, want, same) {
			t.Fatalf("With ranks %v, the comparator sort %v", got, want)
		}
	})
}
