package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"stburst"
	"stburst/internal/burst"
	"stburst/internal/core"
	"stburst/internal/index"
	"stburst/internal/search"
	"stburst/internal/serve"
	"stburst/internal/stream"
	"stburst/internal/sub"
	"stburst/internal/wal"
)

const (
	// searchEvery is the reader's fixed schedule beside the writer.
	searchEvery = 10 * time.Millisecond
	// probeRepeats makes a batch's first document the top hit for its
	// term inside the term's burst, so the freshness check can find it.
	probeRepeats = 12
	docRepeats   = 6
	// readerQueries is how many distinct searches the reader cycles.
	readerQueries = 64
)

// ingestLive replays event-burst document batches through POST
// /v1/documents on a server with a WAL (fsync always), standing
// subscriptions and ingest enabled; after each ack a search for the
// batch's term must already return its first document. Beside the
// writer a second goroutine searches on a fixed schedule, as readers of
// a live deployment do. Every round starts from a fresh store.
type ingestLive struct {
	e       *env
	m       *mined
	batches []ingestBatch
	subs    []stburst.Subscription
	queries []request // the reader's top10 searches, cycled
	p       plan
	dirs    int // scratch directories handed out

	live *ingestState // the round's server
	gen  uint64       // generation before the next ack
	base int          // documents in the store before the round's first ack

	stop   chan struct{}
	done   chan []float64
	beside []float64 // traced pass: the reader's latencies from due time, ms

	// Traced pass: the same batches replayed, stage by stage, on twins of
	// the round's state.
	withSubs, noSubs *ingestState
	stages           *stageTwin
	alerts           float64 // alerts matched per batch, last traced round
	walBytesPerDoc   float64
	dirtyPerBatch    float64
	allocsPerBatch   float64
}

// ingestBatch is one POST /v1/documents op.
type ingestBatch struct {
	req   request
	docs  []stburst.IncomingDocument
	probe request // search that must return the batch's first document
}

const (
	ilAck = iota
	ilProbe
)

func (w *ingestLive) prepare() error {
	m, err := mineCorpus(w.e.size.XS, w.e.seed)
	if err != nil {
		return err
	}
	w.m = m
	w.base = m.c.NumDocs()
	rng := rand.New(rand.NewSource(w.e.seed))
	voc := newVocabulary(rng, w.e.size.XS, m.store)
	w.batches = ingestBatches(rng, m.c, voc, w.e.size.IngestBatches, w.e.size.IngestBatchDocs)

	nSubs := w.e.size.IngestSubs
	for i := 0; i < nSubs; i++ {
		// Half the standing queries watch the terms the bursts will dirty.
		s := stburst.Subscription{Owner: fmt.Sprintf("bench-%d", i), Kind: stburst.Kind(i % 4)}
		if i%2 == 0 {
			s.Terms = []string{voc.events[i/2%len(voc.events)]}
		} else {
			s.Terms = []string{voc.term(i, nSubs, stburst.KindAny)}
		}
		w.subs = append(w.subs, s)
	}
	for i := 0; i < readerQueries; i++ {
		w.queries = append(w.queries, searchRequest(stburst.Query{Text: voc.term(i, readerQueries, kindOf(i)), Kind: kindOf(i), K: 10}))
	}

	w.p = plan{
		Classes: []class{
			{Name: "ack", Units: float64(w.e.size.IngestBatchDocs)},
			{Name: "fresh_search", Side: true},
		},
		Unit:      "document",
		MinRounds: w.e.size.IngestMinRounds,
	}
	var parts [][]byte
	for _, b := range w.batches {
		w.p.OpClass = append(w.p.OpClass, ilAck, ilProbe)
		parts = append(parts, b.req.Body, b.probe.Body)
	}
	for _, q := range w.queries {
		parts = append(parts, q.Body)
	}
	w.p.Fingerprint = fingerprintOps(parts...)
	return nil
}

// ingestBatches builds the write op list: each batch is coverage of one
// Major Event episode — documents heavy with the event's query terms,
// filed from its epicentre during the outbreak — so the bursty terms go
// dirty and the standing queries on them fire.
func ingestBatches(rng *rand.Rand, c *stburst.Collection, voc *vocabulary, batches, docsPerBatch int) []ingestBatch {
	hot := hotspots(c)
	type docJSON struct {
		Stream string `json:"stream"`
		Time   int    `json:"time"`
		Text   string `json:"text"`
	}
	var out []ingestBatch
	for b := 0; b < batches; b++ {
		// The episodes in turn, so every seed ingests the same events.
		h := hot[b%len(hot)]
		term := h.terms[b%len(h.terms)]
		peak := peakWeek(c, term)
		// One story, one vocabulary: the batch's documents share their
		// background words.
		background := []string{voc.word(), voc.word(), voc.word()}
		var docs []docJSON
		for d := 0; d < docsPerBatch; d++ {
			week, repeats := min(h.start+rng.Intn(h.length), c.Timeline()-1), docRepeats
			if d == 0 {
				// The probe: filed in the week the term peaks, which is
				// inside a temporal burst before and after the append.
				week, repeats = peak, probeRepeats
			}
			words := append([]string(nil), background...)
			for r := 0; r < repeats; r++ {
				words = append(words, h.terms...)
			}
			if d == 0 {
				for r := 0; r < repeats; r++ {
					words = append(words, term)
				}
			}
			docs = append(docs, docJSON{Stream: h.name, Time: week, Text: strings.Join(words, " ")})
		}
		body, err := json.Marshal(map[string]any{"documents": docs})
		if err != nil {
			panic(err) // plain strings and ints always marshal
		}
		batch := ingestBatch{
			req: request{Method: http.MethodPost, Target: "/v1/documents", Body: body},
			probe: searchRequest(stburst.Query{
				Terms: []string{term}, Kind: stburst.KindTemporal, K: 100,
				Time: &stburst.Timespan{Start: peak, End: peak},
			}),
		}
		for _, d := range docs {
			batch.docs = append(batch.docs, stburst.IncomingDocument{Stream: h.stream, Time: d.Time, Text: d.Text})
		}
		out = append(out, batch)
	}
	return out
}

// peakWeek is the week the term's merged frequency is highest. Its
// weight in the temporal detector is positive, and more documents in
// that week only raise it, so the week always lies inside one of the
// term's temporal bursts.
func peakWeek(c *stburst.Collection, term string) int {
	best, bestFreq := 0, -1.0
	for week := 0; week < c.Timeline(); week++ {
		var f float64
		for x := 0; x < c.NumStreams(); x++ {
			f += c.TermFrequency(term, x, week)
		}
		if f > bestFreq {
			best, bestFreq = week, f
		}
	}
	return best
}

// ingestState is one booted write-path deployment: what `stserve -ingest
// -subscriptions -wal-dir DIR` assembles.
type ingestState struct {
	store *stburst.Store
	wal   *stburst.WAL
	ing   *stburst.Ingester
	srv   *serve.Server
	dir   string
}

// bootIngest follows stserve's boot order: open the log, load the
// corpus, replay, load the bundle, warm the engines, arm ingest and
// subscriptions, attach the log.
func bootIngest(raw, bundle []byte, dir string, subs []stburst.Subscription) (_ *ingestState, err error) {
	ctx := context.Background()
	l, err := stburst.OpenWAL(dir, stburst.WithWALSync(stburst.WALSyncAlways))
	if err != nil {
		return nil, err
	}
	s := &ingestState{wal: l, dir: dir}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	c, err := stburst.LoadCorpus(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	if _, err := c.ReplayWAL(ctx, l); err != nil {
		return nil, err
	}
	store, err := stburst.LoadStore(bytes.NewReader(bundle), c)
	if err != nil {
		return nil, err
	}
	for _, ix := range store.Resident() {
		ix.Engine()
	}
	s.store = store
	s.srv = serve.New(c, store, "")
	store.SetMineOptions(stburst.NewMineOptions(stburst.WithParallelism(0)))
	s.ing = stburst.NewIngester(store)
	s.srv.EnableIngest(s.ing)
	s.srv.EnableSubscriptions(sub.DispatcherOptions{})
	if _, err := store.AttachWAL(ctx, l); err != nil {
		return nil, err
	}
	for _, spec := range subs {
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		status, resp, _, _ := call(s.srv, request{Method: http.MethodPost, Target: "/v1/subscriptions", Body: body})
		if status != http.StatusCreated {
			return nil, fmt.Errorf("registering subscription: status %d: %s", status, resp)
		}
	}
	return s, nil
}

func (s *ingestState) close() {
	if s == nil {
		return
	}
	if s.ing != nil {
		// Close flushes nothing here: every Add already flushed.
		s.ing.Close()
		s.srv.CloseSubscriptions()
	}
	s.wal.Close()
	os.RemoveAll(s.dir)
}

// matchedAlerts reads the server's count of alerts the post-ingest
// matcher produced.
func (s *ingestState) matchedAlerts() (float64, error) {
	_, body, _, _ := call(s.srv, request{Method: http.MethodGet, Target: "/v1/stats"})
	var stats struct {
		Subscriptions struct {
			Matched float64 `json:"matched_alerts"`
		} `json:"subscriptions"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		return 0, err
	}
	return stats.Subscriptions.Matched, nil
}

// boot is the write path's restart cost: one full deployment assembled
// from the artifacts (each round assembles its own again).
func (w *ingestLive) boot() error {
	s, err := bootIngest(w.m.raw, w.m.bundle, w.roundDir("boot"), w.subs)
	if err != nil {
		return err
	}
	s.close()
	return nil
}

func (w *ingestLive) roundDir(name string) string {
	w.dirs++
	return filepath.Join(w.e.dir, fmt.Sprintf("%s-%d", name, w.dirs))
}

func (w *ingestLive) plan() plan { return w.p }

func (w *ingestLive) beginRound() error {
	var err error
	if w.live, err = bootIngest(w.m.raw, w.m.bundle, w.roundDir("wal"), w.subs); err != nil {
		return err
	}
	w.gen = w.live.store.Generation()
	if w.e.mode == modeTraced {
		if w.withSubs, err = bootIngest(w.m.raw, w.m.bundle, w.roundDir("wal"), w.subs); err != nil {
			return err
		}
		if w.noSubs, err = bootIngest(w.m.raw, w.m.bundle, w.roundDir("wal"), nil); err != nil {
			return err
		}
		if w.stages, err = newStageTwin(w.m.raw, w.m.bundle, w.roundDir("wal")); err != nil {
			return err
		}
	}
	w.stop = make(chan struct{})
	w.done = make(chan []float64, 1)
	go w.reader(w.live.srv, time.Now(), w.stop, w.done)
	return nil
}

// reader issues search j at start + j×searchEvery, whatever the writer
// is doing, and times it from that due time: a stall delays, and so
// lengthens, every search due while it lasts.
func (w *ingestLive) reader(srv *serve.Server, start time.Time, stop <-chan struct{}, done chan<- []float64) {
	var out []float64
	defer func() { done <- out }()
	for j := 0; ; j++ {
		due := start.Add(time.Duration(j) * searchEvery)
		select {
		case <-stop:
			return
		case <-time.After(time.Until(due)):
		}
		_, _, _, end := call(srv, w.queries[j%len(w.queries)])
		out = append(out, ms(end.Sub(due).Nanoseconds()))
	}
}

func (w *ingestLive) do(i int) (time.Duration, time.Duration, error) {
	b := w.batches[i/2]
	if i%2 == ilProbe {
		d, err := w.probe(i/2, b)
		return d, 0, err
	}
	var status int
	var body []byte
	start, end, lost := heavy(func() { status, body, _, _ = call(w.live.srv, b.req) })
	d := end.Sub(start)
	if w.e.mode == modeTraced {
		w.traceStages(i, b, w.e.tr.add("serve.ack", i, -1, start, end))
	}
	if status != http.StatusAccepted {
		return d, lost, fmt.Errorf("batch %d: status %d: %s", i/2, status, body)
	}
	var ack struct {
		Flushed    bool   `json:"flushed"`
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return d, lost, err
	}
	if !ack.Flushed || ack.Generation != w.gen+1 {
		return d, lost, fmt.Errorf("batch %d: acked generation %d (flushed=%v) after %d", i/2, ack.Generation, ack.Flushed, w.gen)
	}
	w.gen = ack.Generation
	return d, lost, nil
}

// probe is the freshness check, and the workload's side class: the
// first search after an install must already return the batch's first
// document.
func (w *ingestLive) probe(batch int, b ingestBatch) (time.Duration, error) {
	status, body, start, end := call(w.live.srv, b.probe)
	d := end.Sub(start)
	if status != http.StatusOK {
		return d, fmt.Errorf("batch %d: probe search status %d", batch, status)
	}
	var got searchResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return d, err
	}
	want := w.base + batch*len(b.docs)
	for _, h := range got.Hits {
		if h.Doc == want {
			return d, nil
		}
	}
	return d, fmt.Errorf("batch %d: search for its term does not return the just-acked document %d", batch, want)
}

func (w *ingestLive) endRound() error {
	close(w.stop)
	beside := <-w.done
	if w.e.mode == modeTraced {
		w.beside = append(w.beside, beside...)
	}
	defer func() {
		w.live.close()
		w.withSubs.close()
		w.noSubs.close()
		w.stages.close()
		w.live, w.withSubs, w.noSubs, w.stages = nil, nil, nil, nil
	}()
	switch w.e.mode {
	case modeWarm:
		// The incremental refreshes must land on the state a from-scratch
		// re-mine of the final collection produces.
		fresh, err := w.live.store.Collection().MineStore(context.Background(), nil)
		if err != nil {
			return err
		}
		if got, want := fingerprints(w.live.store), fingerprints(fresh); got != want {
			return fmt.Errorf("after the round the store's fingerprints are %s, a from-scratch re-mine gives %s", got, want)
		}
	case modeTraced:
		if w.stages.err != nil {
			return fmt.Errorf("replaying the batches on the twins: %w", w.stages.err)
		}
		matched, err := w.withSubs.matchedAlerts()
		if err != nil {
			return err
		}
		n := float64(len(w.batches))
		w.alerts = matched / n
		w.walBytesPerDoc = float64(w.stages.log.Stats().Bytes) / (n * float64(w.e.size.IngestBatchDocs))
		w.dirtyPerBatch = float64(w.stages.dirty) / n
		w.allocsPerBatch = float64(w.stages.allocs) / n
	}
	return nil
}

// stageTwin is the round's starting state seen through the internal
// packages, so each stage of Store.Ingest can be called — and timed — on
// its own: log append, collection append, dirty re-mine, engine build.
type stageTwin struct {
	tw     *twin
	log    *wal.Log
	dir    string
	w      map[int][]core.Window
	c      map[int][]core.CombPattern
	t      map[int][]burst.Interval
	dirty  int
	allocs uint64
	err    error // the first error of a twin's call
}

// check keeps the first error a traced call on a twin returned; the
// round reports it.
func (s *stageTwin) check(err error) {
	if s.err == nil {
		s.err = err
	}
}

func newStageTwin(raw, bundle []byte, dir string) (*stageTwin, error) {
	tw, err := loadTwin(raw, bundle)
	if err != nil {
		return nil, err
	}
	l, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return nil, err
	}
	return &stageTwin{
		tw: tw, log: l, dir: dir,
		w: tw.sets[stburst.KindRegional].AllWindows(),
		c: tw.sets[stburst.KindCombinatorial].AllCombs(),
		t: tw.sets[stburst.KindTemporal].AllTemporal(),
	}, nil
}

func (s *stageTwin) close() {
	if s == nil {
		return
	}
	s.log.Close()
	os.RemoveAll(s.dir)
}

// traceStages replays batch i on the twins: whole through Store.Ingest
// with and without the standing queries, then stage by stage.
func (w *ingestLive) traceStages(i int, b ingestBatch, parent int) {
	tr := w.e.tr
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := w.stages
	ingest := tr.timeSpan("store.ingest", i, parent, func() {
		_, err := w.withSubs.store.Ingest(ctx, b.docs)
		s.check(err)
	})
	runtime.ReadMemStats(&after)
	s.allocs += after.Mallocs - before.Mallocs
	tr.timeSpan("store.ingest_nosubs", i, -1, func() {
		_, err := w.noSubs.store.Ingest(ctx, b.docs)
		s.check(err)
	})

	batch := make([]stream.AppendDoc, len(b.docs))
	for j, d := range b.docs {
		counts := map[string]int{}
		for _, t := range s.tw.tok.Tokenize(d.Text) {
			counts[t]++
		}
		batch[j] = stream.AppendDoc{Stream: d.Stream, Time: d.Time, Counts: counts}
	}
	tr.timeSpan("wal.append", i, ingest, func() {
		_, err := s.log.Append(uint64(i), uint64(s.tw.col.NumDocs()), batch)
		s.check(err)
	})
	var dirty []int
	tr.timeSpan("stream.append", i, ingest, func() {
		var err error
		_, dirty, err = s.tw.col.Append(batch)
		s.check(err)
	})
	s.dirty += len(dirty)
	tr.timeSpan("search.remine", i, ingest, func() {
		var err error
		s.w, s.c, s.t, err = search.RemineDirtyParCtx(ctx, s.tw.col, dirty, s.w, s.c, s.t,
			core.STLocalOptions{}, core.STCombOptions{}, nil, 0)
		s.check(err)
	})
	tr.timeSpan("search.build", i, ingest, func() {
		search.BuildFromPatterns(s.tw.col, index.NewWindowSet(s.w))
		search.BuildFromPatterns(s.tw.col, index.NewCombSet(s.c))
		search.BuildFromPatterns(s.tw.col, index.NewTemporalSet(s.t))
	})
}

func (w *ingestLive) layers() (map[string]float64, error) {
	tr := w.e.tr
	ack := tr.layerMS("serve.ack", nil)
	ingest := tr.layerMS("store.ingest", nil)
	match := ingest - tr.layerMS("store.ingest_nosubs", nil)
	stages := map[string]float64{
		"wal.append_ms":    tr.layerMS("wal.append", nil),
		"stream.append_ms": tr.layerMS("stream.append", nil),
		"search.remine_ms": tr.layerMS("search.remine", nil),
		"search.build_ms":  tr.layerMS("search.build", nil),
		"sub.match_ms":     match,
	}
	explained := 0.0
	for _, v := range stages {
		explained += v
	}
	out := map[string]float64{
		"store.ingest_ms":              ingest,
		"serve.ingest_self_ms":         tr.selfMS("serve.ack", "store.ingest", false, nil),
		"wal.bytes_per_doc":            w.walBytesPerDoc,
		"stream.dirty_terms_per_batch": w.dirtyPerBatch,
		"sub.alerts_per_batch":         w.alerts,
		"ingest.allocs_per_batch":      w.allocsPerBatch,
		"store.ingest_explained_share": explained / ingest,
		"ingest.reader_ms":             median(w.beside),
	}
	for k, v := range stages {
		out[k] = v
	}
	scale, err := w.midAck()
	if err != nil {
		return nil, err
	}
	out["store.ingest_scale"] = scale / ack
	return out, nil
}

// midAck is the ack median of a few of the same kind of batches on the
// mid corpus: how the write path scales with corpus size.
func (w *ingestLive) midAck() (float64, error) {
	m, err := mineCorpus(w.e.size.Mid, w.e.seed)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(w.e.seed))
	voc := newVocabulary(rng, w.e.size.Mid, m.store)
	batches := ingestBatches(rng, m.c, voc, w.e.size.IngestScaleBatches, w.e.size.IngestBatchDocs)
	s, err := bootIngest(m.raw, m.bundle, w.roundDir("wal"), w.subs)
	if err != nil {
		return 0, err
	}
	defer s.close()
	var acks []float64
	for _, b := range batches {
		status, body, start, end := call(s.srv, b.req)
		if status != http.StatusAccepted {
			return 0, fmt.Errorf("mid corpus: status %d: %s", status, body)
		}
		acks = append(acks, ms(end.Sub(start).Nanoseconds()))
	}
	return median(acks), nil
}

func (w *ingestLive) close() {
	if w.stop != nil {
		select {
		case <-w.stop:
		default:
			close(w.stop)
			<-w.done
		}
	}
	w.live.close()
	w.withSubs.close()
	w.noSubs.close()
	w.stages.close()
}
