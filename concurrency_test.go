package stburst

// The race/determinism suite for the corpus-wide batch miners and the
// pattern index. Run it under the race detector (`make race` or
// `go test -race ./...`): the hammer tests are designed to surface any
// shared mutable state in the mining stack, and the determinism tests
// assert byte-identical output across worker counts and repeated runs.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"stburst/internal/index"
	"stburst/internal/search"
)

// synthCollection builds a deterministic multi-term corpus: several
// clustered streams over a timeline, background chatter for every term,
// and localized bursts injected for a subset of terms. Everything is
// driven by a fixed seed, so two calls build identical collections.
func synthCollection(tb testing.TB, streams, timeline, vocab int) *Collection {
	tb.Helper()
	infos := make([]StreamInfo, streams)
	rng := rand.New(rand.NewSource(17))
	for i := range infos {
		infos[i] = StreamInfo{
			Name:     fmt.Sprintf("city%02d", i),
			Location: Point{X: float64(i%4)*10 + rng.Float64(), Y: float64(i/4)*10 + rng.Float64()},
		}
	}
	c := NewCollection(infos, timeline)
	add := func(s, w int, text string) {
		tb.Helper()
		if _, err := c.AddText(s, w, text); err != nil {
			tb.Fatal(err)
		}
	}
	terms := make([]string, vocab)
	for i := range terms {
		terms[i] = fmt.Sprintf("topic%03d", i)
	}
	// Background: every stream mentions a rotating pair of terms weekly.
	for w := 0; w < timeline; w++ {
		for s := 0; s < streams; s++ {
			a := terms[(s+w)%vocab]
			b := terms[(s*3+w*7)%vocab]
			add(s, w, a+" report "+b+" update")
		}
	}
	// Bursts: every third term bursts in a 2-4 stream neighbourhood over
	// a short window, with burst mass well above background.
	for ti := 0; ti < vocab; ti += 3 {
		start := (ti * 5) % (timeline - 6)
		origin := ti % streams
		width := 2 + ti%3
		for w := start; w < start+4; w++ {
			for k := 0; k < width; k++ {
				s := (origin + k) % streams
				for rep := 0; rep < 5; rep++ {
					add(s, w, terms[ti]+" surge "+terms[ti])
				}
			}
		}
	}
	return c
}

// equalWindows compares two regional pattern slices exactly, treating nil
// and empty as equal.
func equalWindows(a, b []RegionalPattern) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Rect != b[i].Rect || a[i].Start != b[i].Start || a[i].End != b[i].End ||
			a[i].Score != b[i].Score || len(a[i].Streams) != len(b[i].Streams) {
			return false
		}
		for j := range a[i].Streams {
			if a[i].Streams[j] != b[i].Streams[j] {
				return false
			}
		}
	}
	return true
}

// equalCombs compares two combinatorial pattern slices exactly.
func equalCombs(a, b []CombinatorialPattern) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Start != b[i].Start || a[i].End != b[i].End || a[i].Score != b[i].Score ||
			len(a[i].Streams) != len(b[i].Streams) || len(a[i].Intervals) != len(b[i].Intervals) {
			return false
		}
		for j := range a[i].Streams {
			if a[i].Streams[j] != b[i].Streams[j] {
				return false
			}
		}
		for j := range a[i].Intervals {
			if a[i].Intervals[j] != b[i].Intervals[j] {
				return false
			}
		}
	}
	return true
}

func TestMineAllRegionalMatchesSequentialLoop(t *testing.T) {
	c := synthCollection(t, 8, 24, 30)
	for _, workers := range []int{1, 4} {
		ix := mustMine(c, KindRegional, &MineOptions{Parallelism: workers})
		if ix.Kind() != "regional" {
			t.Fatalf("kind = %q", ix.Kind())
		}
		if ix.NumPatterns() == 0 {
			t.Fatal("batch miner found no patterns")
		}
		for _, term := range c.Terms() {
			want := c.RegionalPatterns(term, nil)
			got := ix.RegionalPatterns(term)
			if !equalWindows(got, want) {
				t.Fatalf("workers=%d term=%q: batch %+v != sequential %+v", workers, term, got, want)
			}
		}
	}
}

// TestMineAllCombinatorialMatchesSequentialLoop: the corpus-wide miner
// agrees with the per-term one under every option style the per-term
// API takes.
func TestMineAllCombinatorialMatchesSequentialLoop(t *testing.T) {
	c := synthCollection(t, 8, 24, 30)
	for _, opts := range []*CombinatorialOptions{
		nil,
		{MaxPatterns: 2},
		{Detector: DetectorKleinberg},
	} {
		ix := mineWith(t, c, KindCombinatorial, &index.MineOptions{Comb: opts.coreOptions()}, 3)
		for _, term := range c.Terms() {
			want := c.CombinatorialPatterns(term, opts)
			got := ix.CombinatorialPatterns(term)
			if !equalCombs(got, want) {
				t.Fatalf("opts=%+v term=%q: batch %+v != sequential %+v", opts, term, got, want)
			}
		}
	}
}

func TestMineAllTemporalMatchesSequentialLoop(t *testing.T) {
	c := synthCollection(t, 8, 24, 30)
	ix := mustMine(c, KindTemporal, &MineOptions{Parallelism: 4})
	for _, term := range c.Terms() {
		want := c.TemporalBursts(term)
		got := ix.TemporalBursts(term)
		if len(got) != len(want) {
			t.Fatalf("term %q: %d vs %d intervals", term, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("term %q interval %d: %+v != %+v", term, i, got[i], want[i])
			}
		}
	}
}

// TestMineAllDeterminism asserts byte-identical pattern output across
// worker counts (1, 4, GOMAXPROCS) and across repeated runs on freshly
// rebuilt collections, via the index's canonical fingerprint.
func TestMineAllDeterminism(t *testing.T) {
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	type prints struct{ regional, comb, temporal string }
	var golden prints
	for run := 0; run < 3; run++ {
		c := synthCollection(t, 8, 24, 30)
		for _, w := range workerCounts {
			got := prints{
				regional: mustMine(c, KindRegional, &MineOptions{Parallelism: w}).Fingerprint(),
				comb:     mustMine(c, KindCombinatorial, &MineOptions{Parallelism: w}).Fingerprint(),
				temporal: mustMine(c, KindTemporal, &MineOptions{Parallelism: w}).Fingerprint(),
			}
			if run == 0 && w == 1 {
				golden = got
				continue
			}
			if got != golden {
				t.Fatalf("run=%d workers=%d fingerprints diverged:\n got %+v\nwant %+v", run, w, got, golden)
			}
		}
	}
	if golden.regional == golden.comb || golden.comb == golden.temporal {
		t.Fatal("distinct pattern kinds should fingerprint differently")
	}
}

// TestConcurrentCollectionReads hammers a single Collection from many
// goroutines doing concurrent read/mine/search calls. Run under -race.
func TestConcurrentCollectionReads(t *testing.T) {
	c := synthCollection(t, 6, 20, 18)
	s := mustMineStore(t, c, &MineOptions{Parallelism: 2}, KindRegional)
	terms := c.Terms()
	goroutines := 16
	iters := 8
	if testing.Short() {
		goroutines, iters = 8, 3
	}
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				term := terms[(g*31+i)%len(terms)]
				switch (g + i) % 5 {
				case 0:
					c.RegionalPatterns(term, nil)
				case 1:
					c.CombinatorialPatterns(term, nil)
				case 2:
					c.TemporalBursts(term)
				case 3:
					c.TermFrequency(term, g%c.NumStreams(), i%c.Timeline())
				case 4:
					if _, err := s.Query(context.Background(), Query{Text: term, K: 3}); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentBatchMines runs several corpus-wide batch mines over the
// same collection simultaneously, each itself multi-worker. Run under
// -race: this is the densest read pressure the engine generates.
func TestConcurrentBatchMines(t *testing.T) {
	c := synthCollection(t, 6, 20, 18)
	want := mustMine(c, KindRegional, &MineOptions{Parallelism: 1}).Fingerprint()
	var wg sync.WaitGroup
	results := make([]string, 4)
	wg.Add(len(results))
	for i := range results {
		go func(i int) {
			defer wg.Done()
			results[i] = mustMine(c, KindRegional, &MineOptions{Parallelism: 2}).Fingerprint()
		}(i)
	}
	wg.Wait()
	for i, fp := range results {
		if fp != want {
			t.Fatalf("concurrent mine %d fingerprint %s != sequential %s", i, fp, want)
		}
	}
}

// TestSearchAnswersFromIndexWithoutRemining verifies the acceptance
// criterion that the search layer answers repeated queries from the
// pattern index: per-term mining happens during MineAll* and never again,
// counted through the search layer's mining-invocation counter.
func TestSearchAnswersFromIndexWithoutRemining(t *testing.T) {
	c := synthCollection(t, 6, 20, 18)
	before := search.TermsMined()
	s := mustMineStore(t, c, &MineOptions{Parallelism: 2}, KindRegional)
	ix := s.Index(KindRegional)
	mined := search.TermsMined() - before
	if mined == 0 {
		t.Fatal("MineStore should mine terms")
	}
	// First query builds the cached engine; none of the queries re-mine.
	afterMine := search.TermsMined()
	for i := 0; i < 25; i++ {
		queryHits(t, s, Query{Text: "topic000 surge", K: 5})
		queryHits(t, s, Query{Text: "topic003", K: 3})
	}
	if got := search.TermsMined(); got != afterMine {
		t.Fatalf("queries re-mined %d terms", got-afterMine)
	}
	// The engine is shared, even under concurrent first use: every caller
	// gets the same instance.
	engines := make([]*Engine, 8)
	var wg sync.WaitGroup
	wg.Add(len(engines))
	for i := range engines {
		go func(i int) {
			defer wg.Done()
			engines[i] = ix.Engine()
		}(i)
	}
	wg.Wait()
	for _, e := range engines {
		if e != engines[0] {
			t.Fatal("Engine() returned distinct instances")
		}
	}
	if got := search.TermsMined(); got != afterMine {
		t.Fatal("Engine() re-mined")
	}
}

// TestPatternIndexSearchMatchesEngine verifies that the store's search
// path returns exactly what a freshly built engine returns.
func TestPatternIndexSearchMatchesEngine(t *testing.T) {
	c := synthCollection(t, 6, 20, 18)
	s := mustMineStore(t, c, nil, KindRegional)
	eng := mustMine(c, KindRegional, nil).Engine()
	for _, text := range []string{"topic000", "topic003 surge", "topic006", "absent"} {
		q := Query{Text: text, Kind: KindRegional, K: 10}
		got := queryHits(t, s, q)
		page, err := eng.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want := page.Hits
		if len(got) != len(want) {
			t.Fatalf("query %q: %d vs %d hits", text, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %q hit %d: %+v != %+v", text, i, got[i], want[i])
			}
		}
	}
}
