package stream

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"stburst/internal/geo"
)

// Info describes one document stream: a named, fixed geostamp.
type Info struct {
	Name     string     // e.g. a country or city name
	Location geo.Point  // projected position on the 2-D map
	Geo      geo.LatLon // original geographic coordinate, if known
}

// Document is one geostamped, timestamped document. Counts maps interned
// term IDs to their within-document frequency freq(t, d).
type Document struct {
	ID     int
	Stream int // index into the collection's stream list
	Time   int // timestamp index in [0, Length)
	Counts map[int]int
}

// Dictionary interns terms to dense integer IDs.
//
// Concurrency: ID (interning) must only run from the collection's writer
// path; Lookup/Term/Len are safe for unlimited concurrent use against a
// dictionary reached through a published collection state, because
// appends never mutate entries a published state can see (see
// Collection.Append).
type Dictionary struct {
	ids   map[string]int
	terms []string
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{ids: make(map[string]int)}
}

// ID interns term and returns its dense ID.
func (d *Dictionary) ID(term string) int {
	if id, ok := d.ids[term]; ok {
		return id
	}
	id := len(d.terms)
	d.ids[term] = id
	d.terms = append(d.terms, term)
	return id
}

// Lookup returns the ID of term without interning, and whether it exists.
func (d *Dictionary) Lookup(term string) (int, bool) {
	id, ok := d.ids[term]
	return id, ok
}

// Term returns the string for an ID; it panics on an unknown ID.
func (d *Dictionary) Term(id int) string { return d.terms[id] }

// Len returns the number of interned terms.
func (d *Dictionary) Len() int { return len(d.terms) }

// clone returns a dictionary the appender may intern into without
// disturbing readers of the original: the ids map is copied (map writes
// race with reads), while the terms slice is shared — ID only ever
// appends, and a reader of the original dictionary never indexes past
// its own frozen length.
func (d *Dictionary) clone() *Dictionary {
	ids := make(map[string]int, len(d.ids))
	for t, id := range d.ids {
		ids[t] = id
	}
	return &Dictionary{ids: ids, terms: d.terms}
}

// Posting records one (document, stream, time, count) occurrence of a
// term. Fields are packed: corpora at the paper's scale (305k articles,
// ~9M postings) stay in tens of megabytes.
type Posting struct {
	Doc    int32
	Stream int32
	Time   int32
	Count  int32
}

// state is one immutable-once-published snapshot of the collection's
// mutable content. Readers load the current state exactly once per
// operation and never observe a torn mix of two generations; appenders
// build the next state and publish it with a single atomic store.
type state struct {
	dict     *Dictionary
	docs     []Document
	postings map[int][]Posting // term ID -> occurrences
}

// Collection is a spatiotemporal document collection: n streams observed
// over a timeline of Length discrete timestamps.
//
// Concurrency: the initial load (AddTokens/AddCounts/AddTermCounts,
// SetRetainCounts and Dictionary.ID) must happen from a single goroutine
// with no concurrent readers, exactly as before. Once loading is done,
// every read path — Surface, MergedSeries, Postings, Terms, Doc,
// Dict().Lookup/Term, and the rest of the accessors — is safe for
// unlimited concurrent use, and Append may publish further documents
// while those reads run: each reader operation sees one atomic snapshot
// of the collection, either wholly before or wholly after any batch.
type Collection struct {
	streams      []Info
	byName       map[string]int // stream name -> index; fixed with streams
	length       int
	retainCounts bool
	mu           sync.Mutex // serializes writers: load-phase adds and Append batches
	st           atomic.Pointer[state]
	appended     atomic.Int64 // documents published by Append
}

// NewCollection creates an empty collection over the given streams and
// timeline length.
func NewCollection(streams []Info, length int) *Collection {
	c := &Collection{
		streams:      streams,
		byName:       make(map[string]int, len(streams)),
		length:       length,
		retainCounts: true,
	}
	for x, s := range streams {
		c.byName[s.Name] = x
	}
	c.st.Store(&state{
		dict:     NewDictionary(),
		postings: make(map[int][]Posting),
	})
	return c
}

// SetRetainCounts controls whether documents keep their per-term count
// maps after indexing (default true). Large corpus builders disable it:
// every consumer in this repository reads term frequencies through the
// posting lists, and dropping the per-document maps cuts memory by an
// order of magnitude at the 305k-article scale.
func (c *Collection) SetRetainCounts(retain bool) { c.retainCounts = retain }

// NumStreams returns the number of document streams.
func (c *Collection) NumStreams() int { return len(c.streams) }

// Length returns the timeline length (number of timestamps).
func (c *Collection) Length() int { return c.length }

// Stream returns the description of stream x.
func (c *Collection) Stream(x int) Info { return c.streams[x] }

// Points returns the projected 2-D locations of all streams, indexed by
// stream.
func (c *Collection) Points() []geo.Point {
	pts := make([]geo.Point, len(c.streams))
	for i, s := range c.streams {
		pts[i] = s.Location
	}
	return pts
}

// Dict returns the collection's term dictionary (the current snapshot's;
// after an Append, a fresh Dict() call sees the extended vocabulary).
func (c *Collection) Dict() *Dictionary { return c.st.Load().dict }

// NumDocs returns the number of documents added so far.
func (c *Collection) NumDocs() int { return len(c.st.Load().docs) }

// Doc returns document id (IDs are assigned densely by AddTokens/AddCounts
// and Append in insertion order).
func (c *Collection) Doc(id int) Document { return c.st.Load().docs[id] }

// AddTokens adds a document given its token list, interning terms through
// the collection dictionary, and returns the assigned document ID. Load
// phase only; see Append for post-load arrival.
func (c *Collection) AddTokens(streamIdx, time int, tokens []string) (int, error) {
	st := c.st.Load()
	counts := make(map[int]int, len(tokens))
	for _, tok := range tokens {
		counts[st.dict.ID(tok)]++
	}
	return c.AddCounts(streamIdx, time, counts)
}

// TermCount is one term of a document with its within-document
// frequency freq(t, d), the term given by its bytes.
type TermCount struct {
	Term  []byte
	Count int
}

// AddTermCounts adds a document given its (term, count) pairs and
// returns the assigned document ID. It sorts counts in place by term
// (only when they arrive out of order) and rejects a term repeated in
// the document; the terms are interned in that sorted order, the one
// order every load of a corpus and every Append share (see internSorted).
// A term's bytes are copied only when the dictionary meets it for the
// first time, so the caller may reuse them once the call returns. Load
// phase only; Append interns the same way for post-load batches.
func (c *Collection) AddTermCounts(streamIdx, time int, counts []TermCount) (int, error) {
	if err := c.checkShape(streamIdx, time); err != nil {
		return 0, err
	}
	for _, tc := range counts {
		if !countInRange(tc.Count) {
			return 0, countError(string(tc.Term), tc.Count)
		}
	}
	if err := sortTerms(counts); err != nil {
		return 0, err
	}
	st := c.st.Load()
	id := len(st.docs)
	c.addSorted(st, streamIdx, time, counts)
	return id, nil
}

// addSorted interns a validated document's pairs, in ascending term
// order, into st and appends the document and its postings; it returns
// the terms' IDs.
func (c *Collection) addSorted(st *state, streamIdx, time int, counts []TermCount) []int {
	ids := internSorted(st.dict, counts)
	id := len(st.docs)
	doc := Document{ID: id, Stream: streamIdx, Time: time}
	if c.retainCounts {
		doc.Counts = make(map[int]int, len(ids))
	}
	for i, tid := range ids {
		if doc.Counts != nil {
			doc.Counts[tid] = counts[i].Count
		}
		st.postings[tid] = append(st.postings[tid], Posting{
			Doc:    int32(id),
			Stream: int32(streamIdx),
			Time:   int32(time),
			Count:  int32(counts[i].Count),
		})
	}
	st.docs = append(st.docs, doc)
	return ids
}

// sortTerms puts one document's pairs in ascending term order — a
// check, and a sort only when they arrive out of order (json.Marshal
// writes a map's keys sorted) — and rejects a repeated term.
func sortTerms(counts []TermCount) error {
	byTerm := func(a, b TermCount) int { return bytes.Compare(a.Term, b.Term) }
	if !slices.IsSortedFunc(counts, byTerm) {
		slices.SortFunc(counts, byTerm)
	}
	for i := 1; i < len(counts); i++ {
		if bytes.Equal(counts[i-1].Term, counts[i].Term) {
			return fmt.Errorf("stream: term %q repeated in one document", counts[i].Term)
		}
	}
	return nil
}

// internSorted interns one document's terms, given in ascending term
// order, into dict and returns their IDs in that order — the single
// definition of deterministic per-document interning shared by the load
// and append paths: map iteration is randomized per process, and
// snapshot portability (plus stable cross-process index fingerprints)
// needs every load of a corpus to assign identical dictionary IDs.
func internSorted(dict *Dictionary, counts []TermCount) []int {
	ids := make([]int, len(counts))
	for i, tc := range counts {
		id, ok := dict.ids[string(tc.Term)]
		if !ok {
			id = dict.ID(string(tc.Term))
		}
		ids[i] = id
	}
	return ids
}

// Resolve maps an arriving document's stream name to its index and checks
// its timestamp against the timeline — the one name resolver behind every
// door a document enters through (corpus load, HTTP, connectors).
func (c *Collection) Resolve(name string, time int) (int, error) {
	x, ok := c.byName[name]
	if !ok {
		return 0, fmt.Errorf("unknown stream %q", name)
	}
	return x, c.checkTime(time)
}

func (c *Collection) checkTime(time int) error {
	if time < 0 || time >= c.length {
		return fmt.Errorf("time %d outside the timeline [0, %d)", time, c.length)
	}
	return nil
}

// checkDoc validates a document against the collection's shape: its
// stream and timestamp must exist, and every term count must lie in
// [1, math.MaxInt32] (countInRange).
func checkDoc[K comparable](c *Collection, streamIdx, time int, counts map[K]int) error {
	if err := c.checkShape(streamIdx, time); err != nil {
		return err
	}
	for term, n := range counts {
		if !countInRange(n) {
			return countError(term, n)
		}
	}
	return nil
}

// checkShape checks a document's stream and timestamp exist.
func (c *Collection) checkShape(streamIdx, time int) error {
	if streamIdx < 0 || streamIdx >= len(c.streams) {
		return fmt.Errorf("stream: document stream %d out of range [0,%d)", streamIdx, len(c.streams))
	}
	if err := c.checkTime(time); err != nil {
		return fmt.Errorf("stream: document %w", err)
	}
	return nil
}

// countInRange reports whether a term count lies in [1, math.MaxInt32]:
// postings store counts as int32, and a count that wrapped would enter
// the frequency surface of Eq. 6 negative.
func countInRange(n int) bool { return n >= 1 && n <= math.MaxInt32 }

// countError is the error for a term count outside countInRange.
func countError(term any, n int) error {
	return fmt.Errorf("stream: term %v count %d outside [1, %d]", term, n, math.MaxInt32)
}

// AddCounts adds a document given pre-interned term counts and returns the
// assigned document ID. Load phase only: it mutates the current snapshot
// in place (single goroutine, no concurrent readers); see Append for the
// post-load write path.
func (c *Collection) AddCounts(streamIdx, time int, counts map[int]int) (int, error) {
	if err := checkDoc(c, streamIdx, time, counts); err != nil {
		return 0, err
	}
	return c.addCounts(streamIdx, time, counts), nil
}

// addCounts stores an already-validated document.
func (c *Collection) addCounts(streamIdx, time int, counts map[int]int) int {
	st := c.st.Load()
	id := len(st.docs)
	doc := Document{ID: id, Stream: streamIdx, Time: time}
	if c.retainCounts {
		doc.Counts = counts
	}
	st.docs = append(st.docs, doc)
	for term, n := range counts {
		st.postings[term] = append(st.postings[term], Posting{
			Doc:    int32(id),
			Stream: int32(streamIdx),
			Time:   int32(time),
			Count:  int32(n),
		})
	}
	return id
}

// AppendDoc is one document arriving after the initial load: a stream, a
// timestamp, and per-term counts keyed by the term string (interned in
// sorted order, preserving the deterministic ID assignment of the load
// path for replayed appends).
type AppendDoc struct {
	Stream int
	Time   int
	Counts map[string]int
}

// CheckBatch validates a batch against the collection's shape without
// applying it — exactly the checks Append performs before touching any
// state. The write-ahead log runs it before logging a batch, making
// "logged but unappendable" impossible: a frame that reached the log
// always replays cleanly into a collection of the same shape.
func (c *Collection) CheckBatch(docs []AppendDoc) error {
	for i, d := range docs {
		if err := checkDoc(c, d.Stream, d.Time, d.Counts); err != nil {
			return fmt.Errorf("appending document %d: %w", i, err)
		}
	}
	return nil
}

// Append atomically publishes a batch of documents arriving after the
// initial load, safely under any number of concurrent readers: the next
// snapshot is built aside (sharing all untouched structure with the
// current one) and installed with a single atomic store, so a concurrent
// reader observes the collection either wholly before or wholly after
// the batch, never a torn mix. Batches are all-or-nothing: any invalid
// document rejects the whole batch with nothing published. Concurrent
// Append calls serialize.
//
// It returns the ID assigned to the first appended document (IDs are
// dense and consecutive from there) and the ascending IDs of every
// dirty term — a term whose frequency surface the batch changed,
// including terms the batch interned for the first time. The frozen
// prefix of the dictionary is untouched: existing IDs never move, so
// pattern indexes and snapshots mined before the append remain attached
// and only the dirty terms need re-mining.
func (c *Collection) Append(docs []AppendDoc) (firstID int, dirty []int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.CheckBatch(docs); err != nil {
		return 0, nil, err
	}
	cur := c.st.Load()
	next := &state{
		dict: cur.dict.clone(),
		// Appending to the current slices beyond their published length
		// is reader-safe: a reader's snapshot caps every index at the
		// length it was published with, so writes land either past every
		// visible length (shared backing array) or in a fresh copy.
		docs:     cur.docs,
		postings: make(map[int][]Posting, len(cur.postings)),
	}
	for t, ps := range cur.postings {
		next.postings[t] = ps
	}
	firstID = len(cur.docs)
	dirtySet := make(map[int]struct{})
	for _, d := range docs {
		counts := make([]TermCount, 0, len(d.Counts))
		for t, n := range d.Counts {
			counts = append(counts, TermCount{Term: []byte(t), Count: n})
		}
		sortTerms(counts) // a map's keys are distinct: no error
		for _, tid := range c.addSorted(next, d.Stream, d.Time, counts) {
			dirtySet[tid] = struct{}{}
		}
	}
	dirty = make([]int, 0, len(dirtySet))
	for t := range dirtySet {
		dirty = append(dirty, t)
	}
	sort.Ints(dirty)
	c.st.Store(next)
	c.appended.Add(int64(len(docs)))
	return firstID, dirty, nil
}

// Appended returns how many documents arrived through Append, after
// the initial load: live batches and batches replayed from a
// write-ahead log alike.
func (c *Collection) Appended() int { return int(c.appended.Load()) }

// Checksum returns a hex SHA-256 digest over the collection's entire
// logical content — every document (in ID order), every posting list
// (in ascending term-ID order) and the dictionary strings — so two
// collections built by different routes (a live run vs. a corpus load
// plus WAL replay) can be compared for bit-identity. The per-document
// count maps are deliberately excluded: SetRetainCounts varies by
// deployment, and the posting lists carry the same content.
func (c *Collection) Checksum() string {
	st := c.st.Load()
	h := sha256.New()
	var b8 [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(b8[:], v)
		h.Write(b8[:])
	}
	w(uint64(len(c.streams)))
	w(uint64(c.length))
	w(uint64(len(st.docs)))
	for _, d := range st.docs {
		w(uint64(d.Stream))
		w(uint64(d.Time))
	}
	terms := st.terms()
	w(uint64(len(terms)))
	for _, t := range terms {
		name := st.dict.Term(t)
		w(uint64(len(name)))
		h.Write([]byte(name))
		ps := st.postings[t]
		w(uint64(len(ps)))
		for _, p := range ps {
			w(uint64(p.Doc))
			w(uint64(p.Stream))
			w(uint64(p.Time))
			w(uint64(p.Count))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Terms returns the IDs of all terms that occur in the collection in
// ascending order, which is the order the terms were first seen.
func (c *Collection) Terms() []int { return c.st.Load().terms() }

// terms returns the IDs of st's terms in ascending order.
func (st *state) terms() []int {
	out := make([]int, 0, len(st.postings))
	for t := range st.postings {
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}

// Surface returns the dense frequency surface of a term:
// surface[x][i] = D_x[i][t], the total frequency of the term in the
// documents of stream x at timestamp i (Eq. 6 of the paper).
func (c *Collection) Surface(term int) [][]float64 {
	st := c.st.Load()
	surface := make([][]float64, len(c.streams))
	flat := make([]float64, len(c.streams)*c.length)
	for x := range surface {
		surface[x], flat = flat[:c.length], flat[c.length:]
	}
	for _, p := range st.postings[term] {
		surface[p.Stream][p.Time] += float64(p.Count)
	}
	return surface
}

// MergedSeries returns the term's frequency series with all streams merged
// into one, as consumed by the temporal-only TB baseline (§6.3: "the
// streams from the various countries were merged to a single stream").
func (c *Collection) MergedSeries(term int) []float64 {
	st := c.st.Load()
	series := make([]float64, c.length)
	for _, p := range st.postings[term] {
		series[p.Time] += float64(p.Count)
	}
	return series
}

// Postings returns a term's occurrences in ascending document order
// (documents are added and appended in ID order); nil for an unknown
// term. The slice is shared with the collection: callers must not
// modify it.
func (c *Collection) Postings(term int) []Posting { return c.st.Load().postings[term] }
