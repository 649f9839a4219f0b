package stburst

import (
	"context"
	"slices"
	"sort"
	"testing"
)

// sortHits sorts hits into the merged ranking's order (hitBefore).
func sortHits(hits []Hit) {
	sort.SliceStable(hits, func(i, j int) bool { return hitBefore(hits[i], hits[j]) })
}

// sliceRanking yields hits, already in sortHits order, one at a time.
func sliceRanking(hits []Hit) func() (Hit, bool) {
	return func() (Hit, bool) {
		if len(hits) == 0 {
			return Hit{}, false
		}
		h := hits[0]
		hits = hits[1:]
		return h, true
	}
}

// constRanking lazily yields n hits of one kind, all scoring score, docs
// 0..n-1.
func constRanking(n int, score float64, kind Kind) func() (Hit, bool) {
	doc := 0
	return func() (Hit, bool) {
		if doc == n {
			return Hit{}, false
		}
		doc++
		return Hit{Doc: Document{ID: doc - 1}, Score: score, Kind: kind}, true
	}
}

// concatPage is the merge queryKinds had before rankings were lazy,
// kept as its oracle: concatenate every ranking, sortHits, slice the
// page, and report More when hits exist past it.
func concatPage(q Query, rankings [][]Hit) ([]Hit, bool) {
	var merged []Hit
	for _, r := range rankings {
		merged = append(merged, r...)
	}
	sortHits(merged)
	lo, hi := min(q.Offset, len(merged)), min(q.Offset+q.k(), len(merged))
	return merged[lo:hi], len(merged) > q.Offset+q.k()
}

// TestQueryKindsPastMaxK: a merged position at or past MaxK comes from
// the kind that really ranks there. Fetching each kind's first
// min(Offset+K+1, MaxK) hits truncated a kind holding more than MaxK
// hits, and the page came back from another kind.
func TestQueryKindsPastMaxK(t *testing.T) {
	q := Query{Text: "x", Offset: MaxK, K: 10}
	page, err := queryKinds(context.Background(), q, []func() (Hit, bool){
		constRanking(MaxK+20, 2, KindRegional),
		constRanking(50, 1, KindTemporal),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Hits) != 10 || !page.More {
		t.Fatalf("page = %d hits, more=%v; want 10, true", len(page.Hits), page.More)
	}
	for i, h := range page.Hits {
		if want := (Hit{Doc: Document{ID: MaxK + i}, Score: 2, Kind: KindRegional}); h != want {
			t.Fatalf("hit %d = %+v, want %+v", i, h, want)
		}
	}
}

// FuzzQueryKinds: on 1-3 rankings of tie-heavy hits (scores from
// {1, 2, 3}, small doc IDs, distinct (doc, kind) pairs), the lazy merge
// pages exactly as concatenating, sorting and slicing does.
func FuzzQueryKinds(f *testing.F) {
	f.Add([]byte{2, 3, 4, 0x05, 0x06, 0x0b, 0x0d, 0x11, 0x13, 0x16, 0x07})
	f.Add([]byte{0, 0, 0, 0x01, 0x05, 0x09})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		// Header: ranking count, offset, k; then one hit per byte, dealt
		// to the rankings in turn: bits 0-1 its score (0 drops it), bits
		// 2-7 its doc.
		kinds := Kinds()[:1+int(data[0])%3]
		q := Query{Text: "x", Offset: int(data[1] % 32), K: int(data[2] % 16)}
		lists := make([][]Hit, len(kinds))
		seen := map[[2]int]bool{}
		for slot, b := range data[3:] {
			r, doc := slot%len(kinds), int(b>>2)
			if b&3 == 0 || seen[[2]int{r, doc}] {
				continue
			}
			seen[[2]int{r, doc}] = true
			lists[r] = append(lists[r], Hit{Doc: Document{ID: doc}, Score: float64(b & 3), Kind: kinds[r]})
		}
		rankings := make([]func() (Hit, bool), len(lists))
		for i, l := range lists {
			sortHits(l)
			rankings[i] = sliceRanking(l)
		}
		want, wantMore := concatPage(q, lists)
		page, err := queryKinds(context.Background(), q, rankings)
		if err != nil || !slices.Equal(page.Hits, want) || page.More != wantMore {
			t.Fatalf("offset %d k %d: page %v more=%v err=%v; want %v more=%v", q.Offset, q.K, page.Hits, page.More, err, want, wantMore)
		}
	})
}
