package stburst

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"stburst/internal/search"
)

// TestIngestModel is the write path's model-based oracle. Each seed runs
// a random sequence of operations against a live store with a
// write-ahead log, and after every operation checks the store against a
// naive reference: the original corpus plus every appended batch, mined
// from scratch with MineStore. The invariants:
//
//	I1  the collection checksum equals the reference's;
//	I2  every kind's fingerprint equals the reference's, also right
//	    after an Ingest whose context ended past its commit point;
//	I3  the served engines are fresh and a fixed query set pages exactly
//	    like the reference;
//	I4  each ingest's alerts equal the brute-force alerts over the
//	    reference's patterns, and a reboot restores the subscriptions of
//	    the last saved bundle;
//	I5  the generation moves by one per install and not at all per save,
//	    and a reboot restores it;
//	I6  the log's sequence never falls across reboots, its frames and
//	    segments follow the model's log, and the corpus file holds the
//	    reference's documents minus those not yet absorbed;
//	I7  each ingest and attach mines resident kinds × dirty terms, and
//	    clean terms keep their postings by pointer.
func TestIngestModel(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 20
	}
	const steps = 12
	tally := &modelTally{ops: map[string]int{}, checks: map[string]int{}, fired: map[string]int{}}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		runModel(t, seed, steps, tally)
	}
	t.Logf("%d seeds × %d ops; ops %v; checks %v; alerts by owner %v", seeds, steps, tally.ops, tally.checks, tally.fired)
	for _, op := range modelOps {
		if tally.ops[op.name] == 0 {
			t.Errorf("op %s never ran", op.name)
		}
	}
	for i := 1; i <= 7; i++ {
		if inv := fmt.Sprintf("I%d", i); tally.checks[inv] == 0 {
			t.Errorf("invariant %s was never checked", inv)
		}
	}
	for _, spec := range modelSubs(loadCorpusFile(t, writePruneCorpus(t))) {
		silent := spec.Owner == "high-bar" || spec.Owner == "silent"
		if fired := tally.fired[spec.Owner]; silent != (fired == 0) {
			t.Errorf("subscription %s fired %d times", spec.Owner, fired)
		}
	}
}

type modelTally struct {
	ops, checks, fired map[string]int
}

// modelOps are the operations a sequence draws from, each with its own
// per-seed weight; ok, when set, says whether the op applies now.
var modelOps = []struct {
	name string
	ok   func(*modelRun) bool
	run  func(*modelRun)
}{
	{"ingest", nil, func(m *modelRun) { m.ingest(m.batch(false), false) }},
	{"ingest-invalid", nil, (*modelRun).ingestInvalid},
	{"ingest-tripped", nil, func(m *modelRun) { m.ingest(m.batch(true), true) }},
	{"ingest-empty", nil, func(m *modelRun) { m.ingest(nil, false) }},
	{"subscribe", nil, func(m *modelRun) {
		if _, err := m.s.Subscribe(m.subs[m.rng.Intn(len(m.subs))]); err != nil {
			m.fatalf("Subscribe: %v", err)
		}
	}},
	{"unsubscribe", func(m *modelRun) bool { return m.s.NumSubscriptions() > 0 }, func(m *modelRun) {
		subs := m.s.Subscriptions()
		if !m.s.Unsubscribe(subs[m.rng.Intn(len(subs))].ID) {
			m.fatalf("Unsubscribe of a listed subscription failed")
		}
	}},
	{"save", nil, func(m *modelRun) { m.save(false) }},
	{"save-racing-ingest", nil, func(m *modelRun) { m.save(true) }},
	{"crash", nil, func(m *modelRun) { m.reboot(m.walDir) }},
	{"crash-mid-append", func(m *modelRun) bool { return m.lastLogged }, (*modelRun).crashMidAppend},
	{"crash-mid-prune", nil, (*modelRun).crashMidPrune},
}

// modelBatch is one logged batch as the model sees it.
type modelBatch struct {
	docs     []IncomingDocument
	dirty    []string // its dirty terms, from the reference's append
	seq      uint64   // its WAL sequence number
	preGen   uint64   // the generation it was logged at
	absorbed bool     // its documents are in the corpus file
}

type modelRun struct {
	t     *testing.T
	seed  int64
	rng   *rand.Rand
	tally *modelTally
	trail []string

	walOpts []WALOption
	subs    []Subscription
	queries []Query

	corpus, orig, bundle, walDir string

	s      *Store
	w      *WAL
	alerts []Alert // what the alert sink received during the current op

	refCol *Collection // the original corpus plus every batch
	ref    *Store      // refCol mined from scratch; nil until needed

	batches    []*modelBatch
	segs       [][]*modelBatch // the log's segments, the active one last
	seq        uint64          // the log's LastSeq
	bootSeq    uint64          // its LastSeq at the last boot
	frameStart int64           // the active segment's size before its last frame
	lastLogged bool            // the last op appended the active segment's last frame
	gen        uint64
	saved      bool
	bundleGen  uint64
	bundleSubs []Subscription
}

func runModel(t *testing.T, seed int64, steps int, tally *modelTally) {
	rng := rand.New(rand.NewSource(seed))
	m := &modelRun{t: t, seed: seed, rng: rng, tally: tally, segs: make([][]*modelBatch, 1),
		corpus: writePruneCorpus(t), orig: writePruneCorpus(t),
		bundle: filepath.Join(t.TempDir(), "store.bundle"), walDir: t.TempDir()}
	if rng.Intn(2) == 0 {
		m.walOpts = []WALOption{WithWALPrune(m.corpus)}
	}
	m.refCol = loadCorpusFile(t, m.orig)
	m.subs = modelSubs(m.refCol)
	m.queries = modelQueries(*m.subs[1].Region)
	m.s = mustMineStore(t, loadCorpusFile(t, m.corpus), nil)
	m.w = mustOpenWAL(t, m.walDir, m.walOpts...)
	if att := mustAttachWAL(t, m.s, m.w); att.Batches != 0 || att.DirtyTerms != 0 {
		t.Fatalf("seed %d: attaching a fresh log = %+v, want nothing replayed", seed, att)
	}
	m.s.SetAlertSink(m.sink)
	m.gen = m.s.Generation()
	for _, spec := range m.subs {
		if rng.Intn(2) == 0 {
			if _, err := m.s.Subscribe(spec); err != nil {
				t.Fatalf("Subscribe: %v", err)
			}
		}
	}

	weights := make([]int, len(modelOps))
	total := 0
	for i := range weights {
		weights[i] = 1 + rng.Intn(4)
		total += weights[i]
	}
	for done := 0; done < steps; {
		i, r := 0, rng.Intn(total)
		for ; r >= weights[i]; i++ {
			r -= weights[i]
		}
		op := modelOps[i]
		if op.ok != nil && !op.ok(m) {
			continue
		}
		m.trail = append(m.trail, op.name)
		m.lastLogged = false
		op.run(m)
		tally.ops[op.name]++
		m.check()
		done++
	}
	_ = m.w.Close()
}

func (m *modelRun) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("seed %d, ops %v: %s", m.seed, m.trail, fmt.Sprintf(format, args...))
}

func (m *modelRun) sink(alerts []Alert) { m.alerts = append([]Alert(nil), alerts...) }

// modelSubs is one subscription of every shape. Only high-bar (an
// unreachable score) and silent (a term no batch carries) never fire.
func modelSubs(c *Collection) []Subscription {
	around := func(xs ...int) *Rect {
		r := Rect{MinX: 1e9, MinY: 1e9, MaxX: -1e9, MaxY: -1e9}
		for _, x := range xs {
			p := c.Stream(x).Location
			r = Rect{MinX: min(r.MinX, p.X-1), MinY: min(r.MinY, p.Y-1), MaxX: max(r.MaxX, p.X+1), MaxY: max(r.MaxY, p.Y+1)}
		}
		return &r
	}
	return []Subscription{
		{Owner: "any", Terms: []string{"earthquake"}},
		{Owner: "regional-andes", Terms: []string{"earthquake"}, Kind: KindRegional, Region: around(0, 1)},
		{Owner: "regional-japan", Terms: []string{"earthquake"}, Kind: KindRegional, Region: around(2)},
		{Owner: "comb", Terms: []string{"earthquake"}, Kind: KindCombinatorial},
		{Owner: "temporal-late", Terms: []string{"earthquake"}, Kind: KindTemporal, Time: &Timespan{Start: 10, End: 12}},
		{Owner: "rescue", Terms: []string{"rescue"}, Kind: KindTemporal},
		{Owner: "high-bar", Terms: []string{"earthquake"}, MinScore: 1e9},
		{Owner: "silent", Terms: []string{"volcano"}},
	}
}

// modelQueries pages every kind, and the KindAny merge, plain and under
// each filter.
func modelQueries(region Rect) []Query {
	var qs []Query
	for _, kind := range append([]Kind{KindAny}, Kinds()...) {
		q := Query{Text: "earthquake tsunami rescue flood", Kind: kind, K: 4}
		inRegion, inTime, scored, paged := q, q, q, q
		inRegion.Region = &region
		inTime.Time = &Timespan{Start: 9, End: 13}
		scored.MinScore = 1
		paged.Offset = 3
		qs = append(qs, q, inRegion, inTime, scored, paged)
	}
	return qs
}

// modelVocab mixes corpus terms with terms the corpus lacks. No batch
// carries "volcano", the silent subscription's term.
var modelVocab = []string{"earthquake", "rescue", "tsunami", "news", "report", "flood", "levee", "sirens"}

// batch draws one to three documents: stopword-only text, text, or
// counts. needTerms makes the first one carry a term, so that the batch
// has a refresh for a tripped context to reach.
func (m *modelRun) batch(needTerms bool) []IncomingDocument {
	docs := make([]IncomingDocument, 1+m.rng.Intn(3))
	for i := range docs {
		words := make([]string, 1+m.rng.Intn(3))
		for j := range words {
			words[j] = modelVocab[m.rng.Intn(len(modelVocab))]
		}
		d := IncomingDocument{Stream: m.rng.Intn(4), Time: m.rng.Intn(16)}
		switch kind := m.rng.Intn(4); {
		case kind == 0 && !(needTerms && i == 0):
			d.Text = "the and of"
		case kind == 1:
			d.Text = strings.Join(words, " ")
		default:
			d.Counts = map[string]int{}
			for _, w := range words {
				d.Counts[w] += 1 + m.rng.Intn(4)
			}
		}
		docs[i] = d
	}
	return docs
}

// reference returns the reference store, mining it on first use after
// the batches changed.
func (m *modelRun) reference() *Store {
	if m.ref == nil {
		m.ref = mustMineStore(m.t, m.refCol, nil)
	}
	return m.ref
}

// ingest runs one Ingest of docs (nil is an empty batch) and checks it
// against the model; trip ends the context after Ingest's up-front
// check, which must change nothing: the batch still installs in full.
func (m *modelRun) ingest(docs []IncomingDocument, trip bool) {
	ctx := context.Background()
	var b *modelBatch
	if len(docs) > 0 {
		_, dirty, err := appendBatch(m.refCol, docs)
		if err != nil {
			m.fatalf("reference append: %v", err)
		}
		b = &modelBatch{docs: docs, dirty: dirty, seq: m.seq + 1, preGen: m.gen}
		_, m.frameStart = m.activeSegment()
	}
	dirty := map[string]bool{}
	if b != nil {
		for _, term := range b.dirty {
			dirty[term] = true
		}
	}
	before := map[Kind]*Engine{}
	for _, kind := range m.s.Kinds() {
		before[kind] = m.s.Index(kind).Engine()
	}
	m.alerts = nil
	mined := search.TermsMined()
	var tctx context.Context = ctx
	if trip {
		tctx = &trippingContext{Context: ctx, after: 1}
	}
	res, err := m.s.Ingest(tctx, docs)
	if b != nil {
		m.batches = append(m.batches, b)
		m.segs[len(m.segs)-1] = append(m.segs[len(m.segs)-1], b)
		m.seq++
		m.ref = nil
		m.lastLogged = true
	}
	if err != nil {
		m.fatalf("Ingest: %v", err)
	}
	if len(docs) > 0 {
		m.gen++
	}
	if res.Generation != m.gen || res.Docs != len(docs) || res.DirtyTerms != len(dirty) || res.TotalDocs != m.refCol.NumDocs() {
		m.fatalf("Ingest = %+v, want generation %d, %d docs, %d dirty terms, %d total", res, m.gen, len(docs), len(dirty), m.refCol.NumDocs())
	}
	m.tally.checks["I5"]++
	if got, want := search.TermsMined()-mined, int64(len(before)*len(dirty)); got != want {
		m.fatalf("Ingest mined %d (term, kind) pairs, want %d", got, want)
	}
	if len(dirty) == 0 {
		return
	}
	dict := m.s.c.col.Dict()
	for kind, eng := range before {
		prev, cur := eng.eng.Index(), m.s.Index(kind).Engine().eng.Index()
		for _, id := range m.s.c.col.Terms() {
			if p := prev.Postings(id); len(p) > 0 && !dirty[dict.Term(id)] {
				if &cur.Postings(id)[0] != &p[0] {
					m.fatalf("kind %v: clean term %q's postings were rebuilt", kind, dict.Term(id))
				}
				m.tally.checks["I7"]++
			}
		}
	}
	ref := m.reference()
	var ids []int
	for term := range dirty {
		id, _ := ref.c.col.Dict().Lookup(term)
		ids = append(ids, id)
	}
	if want := bruteForceAlerts(ref, m.s.Subscriptions(), m.gen, ids); !reflect.DeepEqual(m.alerts, want) {
		m.fatalf("alerts disagree with brute force:\n got %+v\nwant %+v", m.alerts, want)
	}
	for _, a := range m.alerts {
		m.tally.fired[a.Owner]++
	}
	m.tally.checks["I4"]++
}

// ingestInvalid sends a batch with one out-of-range document: a plain
// error, and nothing changes (check verifies the unchanged model).
func (m *modelRun) ingestInvalid() {
	docs := m.batch(false)
	if d := &docs[m.rng.Intn(len(docs))]; m.rng.Intn(2) == 0 {
		d.Stream = 4
	} else {
		d.Time = 16
	}
	if _, err := m.s.Ingest(context.Background(), docs); err == nil {
		m.fatalf("invalid Ingest succeeded, want an error")
	}
}

// save saves the store (with racing, an Ingest lands while the bundle
// is written) and applies the save's rotation and pruning to the model's
// log: frames up to the snapshot's sequence are absorbed, and sealed
// segments wholly absorbed are deleted.
func (m *modelRun) save(racing bool) {
	boundary := m.seq
	gen, subs := m.gen, m.s.Subscriptions()
	if racing {
		iw := &ingestDuringWrite{do: func() { m.ingest(m.batch(false), false) }}
		if err := m.s.Save(iw); err != nil {
			m.fatalf("Save: %v", err)
		}
		if err := os.WriteFile(m.bundle, iw.buf.Bytes(), 0o644); err != nil {
			m.fatalf("%v", err)
		}
	} else if err := m.s.SaveFile(m.bundle); err != nil {
		m.fatalf("SaveFile: %v", err)
	}
	m.saved, m.bundleGen, m.bundleSubs = true, gen, subs
	m.lastLogged = false
	if len(m.segs[len(m.segs)-1]) > 0 {
		m.segs = append(m.segs, nil)
	}
	if len(m.walOpts) == 0 || boundary == 0 {
		return
	}
	for _, b := range m.batches {
		b.absorbed = b.absorbed || b.seq <= boundary
	}
	kept := m.segs[:0]
	for i, seg := range m.segs {
		if i == len(m.segs)-1 || seg[len(seg)-1].seq > boundary {
			kept = append(kept, seg)
		}
	}
	m.segs = kept
}

// reboot crashes the store and boots a new one from the corpus file, the
// last bundle (or a fresh MineStore when none was saved) and the log in
// walDir, checking the replay and attach against the model.
func (m *modelRun) reboot(walDir string) {
	ctx := context.Background()
	_ = m.w.Close() // the crashed process's descriptor; every frame is already written
	m.walDir = walDir
	c := loadCorpusFile(m.t, m.corpus)
	w := mustOpenWAL(m.t, walDir, m.walOpts...)
	if w.LastSeq() != m.seq || m.seq < m.bootSeq {
		m.fatalf("reopened log at LastSeq %d, want %d (previous boot %d)", w.LastSeq(), m.seq, m.bootSeq)
	}
	var want ReplayResult
	for _, seg := range m.segs {
		for _, b := range seg {
			if b.absorbed {
				want.Skipped++
			} else {
				want.Batches++
				want.Docs += len(b.docs)
			}
		}
	}
	if rep, err := c.ReplayWAL(ctx, w); err != nil || rep != want {
		m.fatalf("ReplayWAL = %+v, %v, want %+v", rep, err, want)
	}
	var s *Store
	if m.saved {
		s = loadBundleStore(m.t, m.bundle, c)
		if subs := s.Subscriptions(); s.Generation() != m.bundleGen || len(subs) != len(m.bundleSubs) ||
			len(subs) > 0 && !reflect.DeepEqual(subs, m.bundleSubs) {
			m.fatalf("bundle loaded generation %d and %+v, saved %d and %+v", s.Generation(), subs, m.bundleGen, m.bundleSubs)
		}
	} else {
		s = mustMineStore(m.t, c, nil)
	}
	m.tally.checks["I4"]++
	dirty := map[string]bool{}
	for _, seg := range m.segs {
		for _, b := range seg {
			if !b.absorbed && b.preGen >= s.Generation() {
				for _, term := range b.dirty {
					dirty[term] = true
				}
			}
		}
	}
	mined := search.TermsMined()
	att, err := s.AttachWAL(ctx, w)
	if err != nil || att.Batches != want.Batches || att.Docs != want.Docs || att.DirtyTerms != len(dirty) || att.Generation != m.gen {
		m.fatalf("AttachWAL = %+v, %v, want %d batches, %d docs, %d dirty terms, generation %d",
			att, err, want.Batches, want.Docs, len(dirty), m.gen)
	}
	if got, want := search.TermsMined()-mined, int64(len(s.Kinds())*len(dirty)); got != want {
		m.fatalf("AttachWAL mined %d (term, kind) pairs, want %d", got, want)
	}
	m.tally.checks["I7"]++
	m.s, m.w, m.bootSeq = s, w, m.seq
	s.SetAlertSink(m.sink)
}

// crashMidAppend tears the last frame — the crash came while it was
// being written — drops its batch from the model, and reboots.
func (m *modelRun) crashMidAppend() {
	_ = m.w.Close()
	path, size := m.activeSegment()
	if err := os.Truncate(path, m.frameStart+m.rng.Int63n(size-m.frameStart)); err != nil {
		m.fatalf("%v", err)
	}
	b := m.batches[len(m.batches)-1]
	m.batches = m.batches[:len(m.batches)-1]
	active := m.segs[len(m.segs)-1]
	m.segs[len(m.segs)-1] = active[:len(active)-1]
	m.seq, m.gen = b.seq-1, b.preGen
	m.refCol = loadCorpusFile(m.t, m.orig)
	for _, b := range m.batches {
		if _, _, err := appendBatch(m.refCol, b.docs); err != nil {
			m.fatalf("reference append: %v", err)
		}
	}
	m.ref = nil
	m.reboot(m.walDir)
}

// crashMidPrune saves, then reboots from a copy of the log taken before
// the save: the disk as a crash between the absorb and the prune leaves
// it, with the corpus file already holding the absorbed batches.
func (m *modelRun) crashMidPrune() {
	image := copyDirFiles(m.t, m.walDir)
	segs := append([][]*modelBatch(nil), m.segs...)
	m.save(false)
	m.segs = segs
	m.reboot(image)
}

// activeSegment returns the path and size of the log's newest segment.
func (m *modelRun) activeSegment() (string, int64) {
	names, _ := filepath.Glob(filepath.Join(m.walDir, "wal-*.stwal"))
	sort.Strings(names)
	if len(names) == 0 {
		m.fatalf("no wal segment in %s", m.walDir)
	}
	fi, err := os.Stat(names[len(names)-1])
	if err != nil {
		m.fatalf("%v", err)
	}
	return names[len(names)-1], fi.Size()
}

// check asserts the invariants that hold after every op.
func (m *modelRun) check() {
	m.t.Helper()
	ref := m.reference()
	if c := m.s.Collection(); c.NumDocs() != ref.c.NumDocs() || c.Checksum() != ref.c.Checksum() {
		m.fatalf("collection holds %d docs, reference %d, or its checksum diverged", c.NumDocs(), ref.c.NumDocs())
	}
	m.tally.checks["I1"]++
	if m.s.Generation() != m.gen {
		m.fatalf("generation %d, want %d", m.s.Generation(), m.gen)
	}
	m.tally.checks["I5"]++
	frames, unabsorbed := 0, 0
	for _, seg := range m.segs {
		for _, b := range seg {
			frames++
			if !b.absorbed {
				unabsorbed += len(b.docs)
			}
		}
	}
	if st, _ := m.s.WALStats(); st.LastSeq != m.seq || st.Batches != frames || st.Segments != len(m.segs) {
		m.fatalf("WALStats = %+v, want LastSeq %d, %d batches, %d segments", st, m.seq, frames, len(m.segs))
	}
	if got, want := countDocLines(m.t, m.corpus), ref.c.NumDocs()-unabsorbed; got != want {
		m.fatalf("corpus file holds %d docs, want %d", got, want)
	}
	m.tally.checks["I6"]++
	for _, kind := range Kinds() {
		if m.s.Index(kind).Fingerprint() != ref.Index(kind).Fingerprint() {
			m.fatalf("kind %v: fingerprint diverged from the reference", kind)
		}
	}
	m.tally.checks["I2"]++
	if assertEnginesFresh(m.t, m.s); m.t.Failed() {
		m.fatalf("served engines are not fresh")
	}
	for _, q := range m.queries {
		got, err := m.s.Query(context.Background(), q)
		want, werr := ref.Query(context.Background(), q)
		if err != nil || werr != nil || !reflect.DeepEqual(got, want) {
			m.fatalf("Query %+v = %+v, %v; reference %+v, %v", q, got, err, want, werr)
		}
	}
	m.tally.checks["I3"]++
}
