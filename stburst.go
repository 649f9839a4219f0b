package stburst

import (
	"io"

	"stburst/internal/burst"
	"stburst/internal/core"
	"stburst/internal/corpusio"
	"stburst/internal/expect"
	"stburst/internal/geo"
	"stburst/internal/index"
	"stburst/internal/stream"
)

// Point is a location on the 2-D map.
type Point = geo.Point

// Rect is an axis-oriented rectangle on the 2-D map.
type Rect = geo.Rect

// LatLon is a geographic coordinate in degrees.
type LatLon = geo.LatLon

// StreamInfo describes one document stream: a named, fixed geostamp.
type StreamInfo = stream.Info

// RegionalPattern is a regional spatiotemporal pattern mined by STLocal:
// a rectangle on the map and the inclusive timeframe [Start, End] during
// which it was bursty, scored by the w-score of Eq. 9 of the paper.
type RegionalPattern = core.Window

// CombinatorialPattern is a combinatorial spatiotemporal pattern mined by
// STComb: a set of streams simultaneously bursty over a common temporal
// segment, scored by cumulative temporal burstiness (Eq. 3 of the paper).
type CombinatorialPattern = core.CombPattern

// TemporalInterval is a bursty temporal interval of a single (or merged)
// stream.
type TemporalInterval = burst.Interval

// BaselineKind selects the expected-frequency model E_x[i][t] of Eq. 7.
type BaselineKind int

const (
	// BaselineRunningMean predicts the mean of all earlier snapshots —
	// the paper's default.
	BaselineRunningMean BaselineKind = iota
	// BaselineWindowMean predicts the mean of the most recent
	// BaselineParam snapshots.
	BaselineWindowMean
	// BaselineEWMA predicts an exponentially weighted moving average
	// with smoothing factor BaselineParam.
	BaselineEWMA
	// BaselineSeasonal predicts the mean of snapshots whole periods
	// (BaselineParam timestamps) earlier.
	BaselineSeasonal
)

// DetectorKind selects the per-stream temporal burst detector used by
// combinatorial mining.
type DetectorKind int

const (
	// DetectorDiscrepancy is the discrepancy-normalized framework of the
	// authors' KDD'09 work — the paper's default.
	DetectorDiscrepancy DetectorKind = iota
	// DetectorKleinberg is Kleinberg's two-state burst automaton.
	DetectorKleinberg
)

// RegionalOptions configures STLocal mining. The zero value (or nil)
// reproduces the paper's defaults: running-mean baseline, exact
// maximum-discrepancy rectangles.
type RegionalOptions struct {
	Baseline      BaselineKind
	BaselineParam float64
	// Grid > 0 aggregates streams into a Grid×Grid partition of Bounds
	// before rectangle search — the paper's §2 granularity mechanism,
	// recommended beyond ~10,000 streams. Bounds must be set with Grid.
	Grid   int
	Bounds Rect
	// KeepDominated disables the cross-region maximality filter of
	// Definition 2.
	KeepDominated bool
}

// CombinatorialOptions configures STComb mining. The zero value (or nil)
// reproduces the paper's defaults.
type CombinatorialOptions struct {
	Detector DetectorKind
	// KleinbergS and KleinbergGamma tune DetectorKleinberg (defaults 2
	// and 1).
	KleinbergS     float64
	KleinbergGamma float64
	// MinIntervalScore drops per-stream intervals scoring at or below
	// the threshold.
	MinIntervalScore float64
	// MinIntervalMass drops streams whose total term frequency is below
	// the threshold (a stream observed once has no burst structure).
	MinIntervalMass float64
	// MaxPatterns bounds the number of patterns extracted; 0 means all.
	MaxPatterns int
}

func (o *RegionalOptions) coreOptions() core.STLocalOptions {
	if o == nil {
		return core.STLocalOptions{}
	}
	opts := core.STLocalOptions{KeepDominated: o.KeepDominated}
	switch o.Baseline {
	case BaselineWindowMean:
		k := int(o.BaselineParam)
		if k < 1 {
			k = 4
		}
		opts.Baseline = expect.NewWindowMean(k)
	case BaselineEWMA:
		a := o.BaselineParam
		if a <= 0 || a > 1 {
			a = 0.3
		}
		opts.Baseline = expect.NewEWMA(a)
	case BaselineSeasonal:
		p := int(o.BaselineParam)
		if p < 1 {
			p = 7
		}
		opts.Baseline = expect.NewSeasonal(p)
	}
	if o.Grid > 0 {
		opts.Finder = core.GridFinder(o.Bounds, o.Grid)
	}
	return opts
}

func (o *CombinatorialOptions) coreOptions() core.STCombOptions {
	if o == nil {
		return core.STCombOptions{}
	}
	opts := core.STCombOptions{MaxPatterns: o.MaxPatterns}
	switch o.Detector {
	case DetectorKleinberg:
		opts.Detector = burst.Kleinberg{S: o.KleinbergS, Gamma: o.KleinbergGamma}
	default:
		opts.Detector = burst.Discrepancy{MinScore: o.MinIntervalScore, MinMass: o.MinIntervalMass}
	}
	return opts
}

// Collection is a spatiotemporal document collection: documents arriving
// on geostamped streams over a discrete timeline.
//
// Concurrency: perform the initial load (AddText/AddTokens) from a
// single goroutine first; after that, every read and mining method
// (RegionalPatterns, CombinatorialPatterns, TemporalBursts,
// TermFrequency, the batch miners, engine construction and search) is
// safe to call from any number of goroutines concurrently. After the
// load, documents arrive only through a Store's Ingest (or ReplayWAL at
// boot), which publishes each batch while those reads run: each read
// sees one atomic snapshot of the collection, either wholly before or
// wholly after any batch.
type Collection struct {
	col *stream.Collection
}

// NewCollection creates an empty collection over the given streams and
// timeline length (number of discrete timestamps).
func NewCollection(streams []StreamInfo, timeline int) *Collection {
	return &Collection{col: stream.NewCollection(streams, timeline)}
}

// AddText tokenizes text (lowercasing, stopword removal) and adds it as
// one document of the given stream at the given timestamp, returning the
// assigned document ID.
func (c *Collection) AddText(streamIdx, time int, text string) (int, error) {
	return c.col.AddTokens(streamIdx, time, tokenizer.Tokenize(text))
}

// AddTokens adds a pre-tokenized document.
func (c *Collection) AddTokens(streamIdx, time int, tokens []string) (int, error) {
	return c.col.AddTokens(streamIdx, time, tokens)
}

// LoadCorpus reads a JSONL corpus in the interchange format emitted by
// cmd/stgen (a topix header line followed by one document per line) and
// returns the rebuilt collection, with stream locations projected by MDS
// over their geographic distances as in §6.1 of the paper. Loading the
// same corpus always interns terms in the same order, so a bundle mined
// from a corpus loads cleanly into any collection rebuilt from that
// corpus with LoadCorpus (see LoadStore).
func LoadCorpus(r io.Reader) (*Collection, error) {
	c, _, err := LoadCorpusLabeled(r)
	return c, err
}

// LoadCorpusLabeled is LoadCorpus plus the per-document ground-truth
// event labels the synthetic generator embeds (labels[docID] is the
// event the document belongs to, 0 for background chatter; nil when the
// corpus carries no labels). Evaluation tooling uses the labels to
// check retrieved documents against the planted events.
func LoadCorpusLabeled(r io.Reader) (*Collection, []int, error) {
	col, labels, err := corpusio.Load(r)
	if err != nil {
		return nil, nil, err
	}
	return &Collection{col: col}, labels, nil
}

// IncomingDocument is one document arriving after the initial corpus
// load — the unit of the live ingestion path (Store.Ingest, the
// Ingester, and stserve's POST /v1/documents).
type IncomingDocument struct {
	// Stream is the index of the originating stream.
	Stream int
	// Time is the document's timestamp on the collection's discrete
	// timeline, in [0, Timeline()). The timeline is fixed at collection
	// creation: live arrival fills the existing timeline, it does not
	// extend it.
	Time int
	// Text is the document body, tokenized with the collection's
	// pipeline (lowercasing, stopword removal) exactly like AddText.
	Text string
	// Tokens is the pre-tokenized alternative to Text and takes
	// precedence when non-nil, exactly like AddTokens.
	Tokens []string
	// Counts is the pre-counted alternative (term -> within-document
	// frequency, the corpus file's own shape) and takes precedence over
	// Tokens and Text when non-empty. Every count must lie in
	// [1, math.MaxInt32].
	Counts map[string]int
}

// Resolve maps an arriving document's stream name to its index and
// checks its timestamp against the timeline. Every door that accepts
// documents by stream name (POST /v1/documents, the connectors' sink)
// resolves through it; the error names what is wrong but not which
// document, so each door prefixes its own position.
func (c *Collection) Resolve(stream string, time int) (int, error) {
	return c.col.Resolve(stream, time)
}

// Check reports the error Store.Ingest would reject the
// document with — an out-of-range stream, timestamp or term count —
// or nil. A door that must drop a bad document rather than fail its
// whole batch (the connectors' sink) asks per document.
func (c *Collection) Check(d IncomingDocument) error {
	return c.col.CheckBatch(c.prepareBatch([]IncomingDocument{d}))
}

// prepareBatch turns a batch into the stream layer's append shape — the
// form the write-ahead log frames and the collection interns, so
// logging and applying agree byte for byte on what the batch contains.
// Counts pass through untouched; Tokens, or else the tokenized Text, are
// counted.
func (c *Collection) prepareBatch(docs []IncomingDocument) []stream.AppendDoc {
	batch := make([]stream.AppendDoc, len(docs))
	for i, d := range docs {
		counts := d.Counts
		if len(counts) == 0 {
			tokens := d.Tokens
			if tokens == nil {
				tokens = tokenizer.Tokenize(d.Text)
			}
			counts = make(map[string]int, len(tokens))
			for _, t := range tokens {
				counts[t]++
			}
		}
		batch[i] = stream.AppendDoc{Stream: d.Stream, Time: d.Time, Counts: counts}
	}
	return batch
}

// NumDocs returns the number of documents added.
func (c *Collection) NumDocs() int { return c.col.NumDocs() }

// Checksum returns a hex digest over the collection's entire logical
// content — documents, posting lists and vocabulary. Two collections
// with equal checksums are interchangeable for every consumer in this
// package: same document IDs, same interned term IDs, same frequency
// surfaces. The crash-recovery suite uses it to prove a corpus load
// plus WAL replay reproduces the pre-crash collection bit for bit.
func (c *Collection) Checksum() string { return c.col.Checksum() }

// NumStreams returns the number of streams.
func (c *Collection) NumStreams() int { return c.col.NumStreams() }

// Timeline returns the timeline length.
func (c *Collection) Timeline() int { return c.col.Length() }

// Stream returns the description of stream x.
func (c *Collection) Stream(x int) StreamInfo { return c.col.Stream(x) }

// Document describes one stored document.
type Document struct {
	ID     int
	Stream int
	Time   int
}

// Doc returns the document with the given ID.
func (c *Collection) Doc(id int) Document {
	d := c.col.Doc(id)
	return Document{ID: d.ID, Stream: d.Stream, Time: d.Time}
}

// Terms returns every distinct term in the collection, in the order
// the terms were first seen (ascending interned ID), so the same corpus
// lists its vocabulary the same way in every process.
func (c *Collection) Terms() []string {
	ids := c.col.Terms()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = c.col.Dict().Term(id)
	}
	return out
}

// TermFrequency returns the total frequency of term in stream x at the
// given timestamp (D_x[i][t], Eq. 6 of the paper).
func (c *Collection) TermFrequency(term string, streamIdx, time int) float64 {
	id, ok := c.col.Dict().Lookup(NormalizeTerm(term))
	if !ok {
		return 0
	}
	return c.col.Surface(id)[streamIdx][time]
}

// RegionalPatterns mines the maximal regional spatiotemporal windows of a
// term with STLocal (§4 of the paper), sorted by descending w-score.
// A nil opts uses the paper's defaults.
func (c *Collection) RegionalPatterns(term string, opts *RegionalOptions) []RegionalPattern {
	return mineTerm[RegionalPattern](c, index.KindRegional, term, &index.MineOptions{Local: opts.coreOptions()})
}

// CombinatorialPatterns mines the combinatorial spatiotemporal patterns
// of a term with STComb (§3 of the paper), in descending score order.
// A nil opts uses the paper's defaults.
func (c *Collection) CombinatorialPatterns(term string, opts *CombinatorialOptions) []CombinatorialPattern {
	return mineTerm[CombinatorialPattern](c, index.KindCombinatorial, term, &index.MineOptions{Comb: opts.coreOptions()})
}

// TemporalBursts extracts the term's bursty temporal intervals on the
// merged stream (all streams folded into one), as used by temporal-only
// burstiness systems.
func (c *Collection) TemporalBursts(term string) []TemporalInterval {
	return mineTerm[TemporalInterval](c, index.KindTemporal, term, &index.MineOptions{})
}

// mineTerm mines one term with the kind table's miner — the one every
// corpus-wide pass runs — or returns nil for a term the collection has
// never seen.
func mineTerm[P any](c *Collection, kind index.PatternKind, term string, o *index.MineOptions) []P {
	id, ok := c.col.Dict().Lookup(NormalizeTerm(term))
	if !ok {
		return nil
	}
	return index.MineTerm[P](kind, c.col, id, o)
}

// RegionalMiner is the streaming STLocal miner for a single term: push
// one snapshot of per-stream frequencies per timestamp and read the
// maximal windows at any point (Algorithm 2 of the paper).
type RegionalMiner struct {
	m *core.STLocal
}

// NewRegionalMiner creates a streaming regional miner over streams fixed
// at the given locations.
func NewRegionalMiner(points []Point, opts *RegionalOptions) *RegionalMiner {
	return &RegionalMiner{m: core.NewSTLocal(points, opts.coreOptions())}
}

// Push processes the next snapshot: observed[x] is the term's frequency
// in stream x at the next timestamp.
func (rm *RegionalMiner) Push(observed []float64) error { return rm.m.Push(observed) }

// Windows returns the maximal spatiotemporal windows found so far, by
// descending score.
func (rm *RegionalMiner) Windows() []RegionalPattern { return rm.m.Windows() }

// Timestamps returns the number of snapshots processed.
func (rm *RegionalMiner) Timestamps() int { return rm.m.Timestamps() }

// CombinatorialMiner is the online variant of STComb (the paper's §8
// future-work item): per-stream bursty intervals are maintained
// incrementally over residual weights and patterns are assembled on
// demand.
type CombinatorialMiner struct {
	m *core.OnlineSTComb
}

// NewCombinatorialMiner creates a streaming combinatorial miner over n
// streams. A nil opts keeps the defaults (matching the batch miner's
// convention). MinIntervalScore, MinIntervalMass and MaxPatterns carry
// over from batch mining — with MinIntervalScore on the online miner's
// residual scale rather than the [0,1]-normalized B_T. The Detector
// choice is ignored: the online variant always maintains intervals
// incrementally over residual weights (see CombinatorialMiner).
func NewCombinatorialMiner(n int, opts *CombinatorialOptions) *CombinatorialMiner {
	var oo core.OnlineSTCombOptions
	if opts != nil {
		oo.MinIntervalScore = opts.MinIntervalScore
		oo.MinIntervalMass = opts.MinIntervalMass
		oo.MaxPatterns = opts.MaxPatterns
	}
	return &CombinatorialMiner{m: core.NewOnlineSTCombOpts(n, oo)}
}

// Push processes the next snapshot of per-stream frequencies.
func (cm *CombinatorialMiner) Push(observed []float64) error { return cm.m.Push(observed) }

// Patterns returns up to max patterns (0 = all) over the data so far.
func (cm *CombinatorialMiner) Patterns(max int) []CombinatorialPattern { return cm.m.Patterns(max) }
