package gen

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"testing"
)

// Determinism audit of the topix generator (PR 6). Everything NewTopix
// emits must be a pure function of TopixConfig: the load harness seeds
// its workload from the same world model, corpus snapshots carry
// cross-process index fingerprints, and CI regenerates corpora on every
// run. The code was audited for the two classic leaks:
//
//   - time-seeded randomness: none — every rand.Rand in the package is
//     seeded from cfg.Seed (NewTopix, NewSynth) or the fixed MDS seed,
//     and hash.go's counter-based randomness is seedless by design;
//   - map iteration: QueryTerms and per-document Counts are maps, but
//     every ordering that reaches an output is keyed access or an
//     explicitly sorted/slice-ordered walk (events and vocabulary intern
//     in slice order; stream.AddCounts sorts term IDs before interning).
//
// The fingerprint test below is the regression tripwire for both: it
// hashes a short corpus trace in document order — sorting each
// document's term multiset itself, so the *test* is insensitive to map
// order while the generator's document/stream/label sequence stays
// pinned — and compares against a constant captured at audit time. If
// it fires without a deliberate generator change, nondeterminism (or an
// accidental behavior change) crept in.

// pinnedTopixTrace is the seed-1 trace fingerprint captured when the
// audit landed. Update it only for deliberate generator changes, and
// say so in the commit message.
const pinnedTopixTrace = 0x68582308f440de76

func topixTrace(t *testing.T, seed int64) uint64 {
	t.Helper()
	tp, err := NewTopix(TopixConfig{
		Seed:             seed,
		WeeklyArticles:   0.3,
		Vocab:            200,
		TokensPerArticle: 6,
		RetainCounts:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	col := tp.Col
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word(uint64(col.NumStreams()))
	word(uint64(col.Length()))
	word(uint64(col.NumDocs()))
	for id := 0; id < col.NumDocs(); id++ {
		d := col.Doc(id)
		word(uint64(d.Stream))
		word(uint64(d.Time))
		word(uint64(tp.Labels[id]))
		terms := make([]int, 0, len(d.Counts))
		for term := range d.Counts {
			terms = append(terms, term)
		}
		sort.Ints(terms)
		for _, term := range terms {
			h.Write([]byte(col.Dict().Term(term)))
			word(uint64(d.Counts[term]))
		}
	}
	// The ground-truth query terms are part of the contract too.
	for _, ev := range Events {
		for _, id := range tp.QueryTerms[ev.ID] {
			h.Write([]byte(col.Dict().Term(id)))
		}
	}
	return h.Sum64()
}

func TestTopixTraceFingerprint(t *testing.T) {
	f1 := topixTrace(t, 1)
	if again := topixTrace(t, 1); again != f1 {
		t.Fatalf("same seed, different trace: %#x vs %#x", f1, again)
	}
	if f2 := topixTrace(t, 2); f2 == f1 {
		t.Fatalf("seeds 1 and 2 produced the same trace %#x", f1)
	}
	if f1 != pinnedTopixTrace {
		t.Errorf("seed-1 trace = %#x, pinned %#x — the generator's output changed; "+
			"if deliberate, update pinnedTopixTrace", f1, pinnedTopixTrace)
	}
}

// TestTopixTraceOtherSeedsPinned pins the traces of seeds 2 and 3. The
// trace covers every document and label but no location, so it checks
// that NewTopix's projection on its own RNG, whose points ProjectStreams
// replaces, still advances the RNG the way every generated corpus
// depends on.
func TestTopixTraceOtherSeedsPinned(t *testing.T) {
	for seed, want := range map[int64]uint64{2: 0x8f6af3313493f920, 3: 0x97ef3e54507c3a62} {
		if got := topixTrace(t, seed); got != want {
			t.Errorf("seed-%d trace = %#x, pinned %#x — the generator's documents changed", seed, got, want)
		}
	}
}
