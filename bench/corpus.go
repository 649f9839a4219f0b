package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"stburst"
	"stburst/internal/corpusio"
	"stburst/internal/gen"
)

// corpusJSONL generates the Topix-like corpus of the given size for the
// seed and returns it in the JSONL interchange form the shipped binaries
// read (what `stgen -kind topix` prints), so every workload enters
// through LoadCorpus exactly as stserve and stmine do.
func corpusJSONL(size corpusSize, seed int64) ([]byte, error) {
	tp, err := gen.NewTopix(gen.TopixConfig{
		Seed:             seed,
		WeeklyArticles:   size.Weekly,
		Vocab:            size.Vocab,
		TokensPerArticle: size.Tokens,
		RetainCounts:     true,
	})
	if err != nil {
		return nil, err
	}
	col := tp.Col
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	h := corpusio.Header{Kind: "topix", Timeline: col.Length()}
	for i := 0; i < col.NumStreams(); i++ {
		h.Streams = append(h.Streams, col.Stream(i).Name)
	}
	if err := enc.Encode(h); err != nil {
		return nil, err
	}
	for id := 0; id < col.NumDocs(); id++ {
		d := col.Doc(id)
		counts := make(map[string]int, len(d.Counts))
		for term, n := range d.Counts {
			counts[col.Dict().Term(term)] = n
		}
		line := corpusio.DocLine{Stream: col.Stream(d.Stream).Name, Time: d.Time, Counts: counts, Event: tp.Labels[id]}
		if err := enc.Encode(line); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// mined is a corpus with its three-kind store, the starting point of
// every workload's artifacts.
type mined struct {
	raw    []byte // corpus JSONL
	c      *stburst.Collection
	store  *stburst.Store
	bundle []byte // Store.Save of the three kinds
}

// mineCorpus generates, loads and mines a corpus at the program's
// default parallelism and saves the bundle.
func mineCorpus(size corpusSize, seed int64) (*mined, error) {
	raw, err := corpusJSONL(size, seed)
	if err != nil {
		return nil, err
	}
	c, err := stburst.LoadCorpus(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	store, err := c.MineStore(context.Background(), nil)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := store.Save(&b); err != nil {
		return nil, err
	}
	return &mined{raw: raw, c: c, store: store, bundle: b.Bytes()}, nil
}

// bootStore is the shipped boot path: LoadCorpus, LoadStore, and every
// resident engine warmed before traffic, as stserve does.
func bootStore(raw, bundle []byte) (*stburst.Collection, *stburst.Store, error) {
	c, err := stburst.LoadCorpus(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	store, err := stburst.LoadStore(bytes.NewReader(bundle), c)
	if err != nil {
		return nil, nil, err
	}
	for _, ix := range store.Resident() {
		ix.Engine()
	}
	return c, store, nil
}

// fingerprints are the resident kinds' canonical pattern fingerprints.
func fingerprints(s *stburst.Store) string {
	out := ""
	for _, ix := range s.Resident() {
		out += ix.Kind() + ":" + ix.Fingerprint() + " "
	}
	return out
}

// vocabulary picks query terms the way the corpus generator picks words:
// Zipf over the background vocabulary, with the Major Events' query
// terms mixed in. The picks of a class are stratified — op i of n takes
// the i-th of n equal slices of the Zipf distribution, and the seed only
// moves it inside its slice — so two seeds query the same mix of heavy
// and light terms and a class's median does not depend on the luck of
// the draw.
type vocabulary struct {
	rng    *rand.Rand
	cdf    []float64 // cumulative Zipf(1.2, 4) mass of background rank k
	events []string
	store  *stburst.Store
}

func newVocabulary(rng *rand.Rand, size corpusSize, store *stburst.Store) *vocabulary {
	v := &vocabulary{rng: rng, cdf: make([]float64, size.Vocab), store: store}
	// The generator's background draw: P(k) ∝ (4+k)^-1.2.
	var sum float64
	for k := range v.cdf {
		sum += math.Pow(4+float64(k), -1.2)
		v.cdf[k] = sum
	}
	for k := range v.cdf {
		v.cdf[k] /= sum
	}
	seen := map[string]bool{}
	for _, ev := range gen.Events {
		for _, q := range ev.Query {
			if !seen[q] {
				seen[q] = true
				v.events = append(v.events, q)
			}
		}
	}
	return v
}

// hasPatterns reports whether the term has a stored pattern of the kind
// (of any resident kind for KindAny).
func hasPatterns(store *stburst.Store, term string, kind stburst.Kind) bool {
	for _, ix := range store.Resident() {
		if kind != stburst.KindAny && ix.PatternKind() != kind {
			continue
		}
		switch ix.PatternKind() {
		case stburst.KindRegional:
			if len(ix.RegionalPatterns(term)) > 0 {
				return true
			}
		case stburst.KindCombinatorial:
			if len(ix.CombinatorialPatterns(term)) > 0 {
				return true
			}
		case stburst.KindTemporal:
			if len(ix.TemporalBursts(term)) > 0 {
				return true
			}
		}
	}
	return false
}

// term picks the query term of op i of n: an event term for every fourth
// op, otherwise the background word at the op's slice of the Zipf
// distribution. A term with no pattern of the kind gives way to the next
// one that has some, so no op queries into the void.
func (v *vocabulary) term(i, n int, kind stburst.Kind) string {
	return v.termWhere(i, n, func(t string) bool { return hasPatterns(v.store, t, kind) })
}

// termWhere is term with the caller's own acceptance test.
func (v *vocabulary) termWhere(i, n int, ok func(term string) bool) string {
	if i%4 == 0 {
		for j := range v.events {
			if t := v.events[(i/4+j)%len(v.events)]; ok(t) {
				return t
			}
		}
	}
	return v.wordAt((float64(i)+v.rng.Float64())/float64(n), ok)
}

// wordAt is the background word at quantile u of the Zipf distribution,
// or the next one after it that ok accepts.
func (v *vocabulary) wordAt(u float64, ok func(term string) bool) string {
	rank := sort.SearchFloat64s(v.cdf, u)
	for j := range v.cdf {
		if t := fmt.Sprintf("w%04d", (rank+j)%len(v.cdf)); ok(t) {
			return t
		}
	}
	panic("bench: no word of the vocabulary is acceptable")
}

// word draws one background word as the generator would, for document
// text.
func (v *vocabulary) word() string {
	return v.wordAt(v.rng.Float64(), func(t string) bool { return hasPatterns(v.store, t, stburst.KindAny) })
}

// stride returns a multiplier coprime with n: i → i*stride mod n is a
// fixed permutation of a class's slices, used to pair each op's first
// term with a second from elsewhere in the distribution.
func stride(n int) int {
	gcd := func(a, b int) int {
		for b != 0 {
			a, b = b, a%b
		}
		return a
	}
	for k := n/2 + 1; ; k++ {
		if gcd(k, n) == 1 {
			return k
		}
	}
}

// kindOf gives op i its pattern kind, the three in turn.
func kindOf(i int) stburst.Kind { return stburst.Kinds()[i%3] }

// fingerprintOps digests an op list: equal seeds must give equal lists.
func fingerprintOps(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
