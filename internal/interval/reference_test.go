package interval

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

// topCliquesReference is TopCliques as it stood before the sweep events
// were sorted once: every round rebuilds and re-sorts the events of the
// remaining intervals. FuzzTopCliques holds TopCliques to it bit for bit.
func topCliquesReference(intervals []Interval, k int) []Clique {
	remaining := append([]Interval(nil), intervals...)
	var out []Clique
	for len(remaining) > 0 && (k <= 0 || len(out) < k) {
		c := maxWeightCliqueReference(remaining)
		if c.Weight <= 0 {
			break
		}
		out = append(out, c)
		taken := make(map[Interval]int, len(c.Members))
		for _, m := range c.Members {
			taken[m]++
		}
		next := remaining[:0]
		for _, iv := range remaining {
			if n := taken[iv]; n > 0 {
				taken[iv] = n - 1
				continue
			}
			next = append(next, iv)
		}
		remaining = next
	}
	return out
}

func maxWeightCliqueReference(intervals []Interval) Clique {
	type event struct {
		pos   int
		delta float64
	}
	events := make([]event, 0, 2*len(intervals))
	for _, iv := range intervals {
		events = append(events, event{iv.Start, iv.Weight}, event{iv.End + 1, -iv.Weight})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].pos != events[j].pos {
			return events[i].pos < events[j].pos
		}
		return events[i].delta > events[j].delta
	})
	var (
		cur      float64
		best     float64
		bestPos  int
		haveBest bool
	)
	for k := 0; k < len(events); {
		pos := events[k].pos
		for k < len(events) && events[k].pos == pos {
			cur += events[k].delta
			k++
		}
		if !haveBest || cur > best {
			best, bestPos, haveBest = cur, pos, true
		}
	}
	var members []Interval
	for _, iv := range intervals {
		if iv.Contains(bestPos) {
			members = append(members, iv)
		}
	}
	start, end, _ := CommonSegment(members)
	return Clique{Members: members, Start: start, End: end, Weight: best}
}

// fuzzIntervals decodes a fuzz input: the first byte is the clique limit
// k (0..7, 0 meaning all) in its low bits and, in bit 3, whether weights
// are small integers (ties between stab points and between cliques) or
// tenths (sums that round). Each interval then takes four bytes: start,
// length, weight and stream; a weight byte of 0 repeats the previous
// interval exactly, so duplicate intervals are common.
func fuzzIntervals(data []byte) ([]Interval, int) {
	if len(data) == 0 {
		return nil, 0
	}
	mode, data := data[0], data[1:]
	var ivs []Interval
	for ; len(data) >= 4 && len(ivs) < 300; data = data[4:] {
		if data[2] == 0 && len(ivs) > 0 {
			ivs = append(ivs, ivs[len(ivs)-1])
			continue
		}
		iv := Interval{Start: int(data[0] % 32), Stream: int(data[3] % 16)}
		iv.End = iv.Start + int(data[1]%8)
		if mode&8 == 0 {
			iv.Weight = float64(1 + data[2]%4)
		} else {
			iv.Weight = float64(data[2]) / 10
		}
		ivs = append(ivs, iv)
	}
	return ivs, int(mode & 7)
}

// FuzzTopCliques holds the sort-once sweep to the re-sorting reference:
// the same cliques, members in the same order, and the same weight bits.
// MaxWeightClique is held to the reference's first round the same way.
func FuzzTopCliques(f *testing.F) {
	f.Add([]byte{0, 1, 3, 2, 0, 2, 2, 3, 1, 4, 1, 1, 2})
	f.Add([]byte{2, 0, 4, 1, 0, 0, 4, 0, 0, 5, 2, 1, 1, 6, 3, 2, 2, 7, 0, 0, 3})
	f.Add([]byte{8, 3, 5, 17, 1, 4, 2, 33, 2, 4, 3, 0, 0, 9, 1, 250, 3, 20, 7, 99, 4})
	f.Add([]byte{11, 1, 7, 10, 0, 2, 7, 20, 1, 3, 7, 30, 2, 8, 0, 40, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		ivs, k := fuzzIntervals(data)
		got := TopCliques(ivs, k)
		want := topCliquesReference(ivs, k)
		if !sameCliques(got, want) {
			t.Fatalf("intervals %v, k %d:\nsweep     %v\nreference %v", ivs, k, got, want)
		}
		if len(ivs) == 0 {
			return
		}
		one, _ := MaxWeightClique(ivs)
		if ref := maxWeightCliqueReference(ivs); !sameCliques([]Clique{one}, []Clique{ref}) {
			t.Fatalf("intervals %v: MaxWeightClique %v, reference %v", ivs, one, ref)
		}
	})
}

func sameCliques(a, b []Clique) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Weight) != math.Float64bits(b[i].Weight) ||
			a[i].Start != b[i].Start || a[i].End != b[i].End ||
			len(a[i].Members) != len(b[i].Members) ||
			len(a[i].Members) > 0 && !reflect.DeepEqual(a[i].Members, b[i].Members) {
			return false
		}
	}
	return true
}
