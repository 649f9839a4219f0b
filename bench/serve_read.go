package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"time"

	"stburst"
	"stburst/internal/gen"
	"stburst/internal/search"
	"stburst/internal/serve"
)

// serveRead replays a read-only request mix against one serve.Server
// over a LoadStore'd three-kind bundle. Only the read path runs: serve
// decode/encode, Store.Query, search.Engine.Run, index.TopK, textproc.
type serveRead struct {
	e      *env
	m      *mined // corpus, oracle store and bundle
	ops    []serveOp
	p      plan
	srv    *serve.Server
	store  *stburst.Store
	want   []uint64 // per op: digest of the answer the warm-up round checked
	bytes  int      // response bytes of one round
	tw     *twin    // traced pass only
	rounds int64    // search.FetchRounds() spent in traced search.run spans
	runs   int      // traced search ops behind rounds
}

type serveOp struct {
	class int
	req   request
	q     *stburst.Query // nil for the /v1/patterns ops
	term  string
}

const (
	srTop10 = iota
	srAny
	srHotspot
	srDeep
	srPatterns
	srPatternsFiltered
)

func (w *serveRead) prepare() error {
	m, err := mineCorpus(w.e.size.Mid, w.e.seed)
	if err != nil {
		return err
	}
	w.m = m
	rng := rand.New(rand.NewSource(w.e.seed))
	voc := newVocabulary(rng, w.e.size.Mid, m.store)
	hot := hotspots(m.c)
	add := func(class int, n int, mk func(i int) serveOp) {
		for i := 0; i < n; i++ {
			op := mk(i)
			op.class = class
			w.ops = append(w.ops, op)
		}
	}
	search := func(q stburst.Query) serveOp { return serveOp{req: searchRequest(q), q: &q} }
	nMain, nSide := w.e.size.ServeMain, w.e.size.ServeSide
	add(srTop10, nMain, func(i int) serveOp {
		return search(stburst.Query{Text: voc.term(i, nMain, kindOf(i)), Kind: kindOf(i), K: 10})
	})
	add(srAny, nMain, func(i int) serveOp {
		return search(stburst.Query{Text: voc.term(i, nMain, stburst.KindAny), K: 10})
	})
	add(srHotspot, nMain, func(i int) serveOp {
		return search(hot[i%len(hot)].query(rng, i))
	})
	pair := stride(nMain)
	add(srDeep, nMain, func(i int) serveOp {
		a, b := voc.term(i, nMain, kindOf(i)), voc.term(i*pair%nMain, nMain, kindOf(i))
		return search(stburst.Query{Text: a + " " + b, Kind: kindOf(i), K: 100, Offset: 100})
	})
	add(srPatterns, nSide, func(i int) serveOp {
		t := voc.term(i, nSide, stburst.KindAny)
		return serveOp{req: request{Method: http.MethodGet, Target: "/v1/patterns/" + t}, term: t}
	})
	regional := m.store.Index(stburst.KindRegional)
	add(srPatternsFiltered, nSide, func(i int) serveOp {
		// The filter is one of the term's own windows, so it always
		// matches and the op never answers 404.
		t := voc.term(i, nSide, stburst.KindRegional)
		ps := regional.RegionalPatterns(t)
		p := ps[rng.Intn(len(ps))]
		f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
		v := url.Values{
			"kind":   {"regional"},
			"from":   {strconv.Itoa(p.Start)},
			"to":     {strconv.Itoa(p.End)},
			"region": {strings.Join([]string{f(p.Rect.MinX), f(p.Rect.MinY), f(p.Rect.MaxX), f(p.Rect.MaxY)}, ",")},
		}
		return serveOp{req: request{Method: http.MethodGet, Target: "/v1/patterns/" + t + "?" + v.Encode()}, term: t}
	})
	// One interleaved mix, as traffic arrives, rather than class after class.
	rng.Shuffle(len(w.ops), func(i, j int) { w.ops[i], w.ops[j] = w.ops[j], w.ops[i] })

	w.p = plan{
		Classes: []class{
			{Name: "top10", Units: 1}, {Name: "any", Units: 1}, {Name: "hotspot", Units: 1}, {Name: "deep", Units: 1},
			{Name: "patterns", Side: true, Units: 1}, {Name: "patterns_filtered", Side: true, Units: 1},
		},
		Unit:      "request",
		MinRounds: w.e.size.ServeMinRounds,
	}
	var parts [][]byte
	for _, op := range w.ops {
		w.p.OpClass = append(w.p.OpClass, op.class)
		parts = append(parts, []byte(op.req.Method+" "+op.req.Target), op.req.Body)
	}
	w.p.Fingerprint = fingerprintOps(parts...)
	w.want = make([]uint64, len(w.ops))
	return nil
}

// hotspot is an event episode: where and when a Major Event broke out.
type hotspot struct {
	terms  []string
	stream int    // the epicentre's stream
	name   string // and its name
	at     stburst.Point
	extent float64 // the map's larger side, the scale of a region radius
	start  int
	length int
}

// hotspots lists the episodes of the generator's Major Events with their
// epicentres' positions on the collection's map.
func hotspots(c *stburst.Collection) []hotspot {
	byName := map[string]int{}
	minX, minY, maxX, maxY := 0.0, 0.0, 0.0, 0.0
	for x := 0; x < c.NumStreams(); x++ {
		p := c.Stream(x).Location
		byName[c.Stream(x).Name] = x
		if x == 0 || p.X < minX {
			minX = p.X
		}
		if x == 0 || p.X > maxX {
			maxX = p.X
		}
		if x == 0 || p.Y < minY {
			minY = p.Y
		}
		if x == 0 || p.Y > maxY {
			maxY = p.Y
		}
	}
	extent := max(maxX-minX, maxY-minY)
	var out []hotspot
	for _, ev := range gen.Events {
		for _, ep := range ev.Episodes {
			if x, ok := byName[ep.Epicenter]; ok {
				out = append(out, hotspot{
					terms: ev.Query, stream: x, name: ep.Epicenter, at: c.Stream(x).Location,
					extent: extent, start: ep.Start, length: ep.Length,
				})
			}
		}
	}
	return out
}

// query aims a region + time filter at the episode: a rectangle around
// the epicentre and a timeframe inside the outbreak.
func (h hotspot) query(rng *rand.Rand, i int) stburst.Query {
	r := h.extent * (0.05 + 0.15*rng.Float64())
	start := h.start + rng.Intn(h.length/2+1)
	end := min(start+1+rng.Intn(h.length), gen.Weeks-1)
	kind := stburst.KindRegional
	if i%2 == 1 {
		kind = stburst.KindCombinatorial
	}
	return stburst.Query{
		Text:   h.terms[i%len(h.terms)],
		Kind:   kind,
		K:      10,
		Region: &stburst.Rect{MinX: h.at.X - r, MinY: h.at.Y - r, MaxX: h.at.X + r, MaxY: h.at.Y + r},
		Time:   &stburst.Timespan{Start: start, End: end},
	}
}

func (w *serveRead) boot() error {
	c, store, err := bootStore(w.m.raw, w.m.bundle)
	if err != nil {
		return err
	}
	w.store = store
	w.srv = serve.New(c, store, "")
	return nil
}

func (w *serveRead) plan() plan { return w.p }

func (w *serveRead) beginRound() error {
	if w.e.mode == modeTraced && w.tw == nil {
		tw, err := loadTwin(w.m.raw, w.m.bundle)
		if err != nil {
			return err
		}
		w.tw = tw
	}
	return nil
}

func (w *serveRead) do(i int) (time.Duration, time.Duration, error) {
	op := w.ops[i]
	status, body, start, end := call(w.srv, op.req)
	d := end.Sub(start)
	if status != http.StatusOK {
		return d, 0, fmt.Errorf("%s %s: status %d", op.req.Method, op.req.Target, status)
	}
	got := hashBody(body)
	switch w.e.mode {
	case modeWarm:
		if op.q != nil {
			if err := checkSearch(body, w.m.store, *op.q); err != nil {
				return d, 0, fmt.Errorf("%s: %w", op.req.Body, err)
			}
		}
		w.want[i] = got
		w.bytes += len(body)
	default:
		if got != w.want[i] {
			return d, 0, fmt.Errorf("%s %s: answer differs from the warm-up round's", op.req.Method, op.req.Target)
		}
	}
	if w.e.mode == modeTraced {
		w.traceLayers(i, op, w.e.tr.add("serve.handler", i, -1, start, end))
	}
	return d, 0, nil
}

// traceLayers repeats, from outside, the calls the handler made for this
// op and records a span around each.
func (w *serveRead) traceLayers(i int, op serveOp, parent int) {
	tr := w.e.tr
	ctx := context.Background()
	if op.q == nil {
		tr.timeSpan("store.patterns", i, parent, func() {
			for _, ix := range w.store.Resident() {
				ix.RegionalPatterns(op.term)
				ix.CombinatorialPatterns(op.term)
				ix.TemporalBursts(op.term)
			}
		})
		return
	}
	// The handler has just answered 200 for this query, so these calls
	// cannot fail; only how long they take matters.
	q := *op.q
	subs := fanOut(q)
	sq := tr.timeSpan("store.query", i, parent, func() { _, _ = w.store.Query(ctx, q) })
	before := search.FetchRounds()
	for _, sub := range subs {
		eng := w.store.Index(sub.Kind).Engine()
		tr.timeSpan("search.run", i, sq, func() { _, _ = eng.Run(ctx, sub) })
	}
	w.rounds += search.FetchRounds() - before
	w.runs++
	var toks []string
	tr.timeSpan("textproc.tokenize", i, sq, func() { toks = w.tw.tok.Tokenize(strings.ToLower(q.Text)) })
	for _, sub := range subs {
		w.tw.topK(tr, i, sq, toks, sub)
	}
}

// fanOut lists the single-kind queries Store.Query runs for q: q itself
// for a concrete kind, and for KindAny one per kind, each asked for the
// first Offset+K+1 of its own ranking.
func fanOut(q stburst.Query) []stburst.Query {
	if q.Kind != stburst.KindAny {
		return []stburst.Query{q}
	}
	k := q.K
	if k == 0 {
		k = stburst.DefaultK
	}
	var out []stburst.Query
	for _, kind := range stburst.Kinds() {
		sub := q
		sub.Kind, sub.K, sub.Offset = kind, min(q.Offset+k+1, stburst.MaxK), 0
		out = append(out, sub)
	}
	return out
}

func (w *serveRead) endRound() error { return nil }

func (w *serveRead) isClass(classes ...int) func(op int) bool {
	return func(op int) bool {
		for _, c := range classes {
			if w.ops[op].class == c {
				return true
			}
		}
		return false
	}
}

func (w *serveRead) layers() (map[string]float64, error) {
	tr := w.e.tr
	searches := w.isClass(srTop10, srAny, srHotspot, srDeep)
	handler := opValues(tr.perOpRound("serve.handler", false), searches)
	out := map[string]float64{
		"serve.handler_ms":              median(handler),
		"serve.p90_ms":                  quantile(handler, 0.9),
		"serve.p99_ms":                  quantile(handler, 0.99),
		"serve.self_ms":                 tr.selfMS("serve.handler", "store.query", false, searches),
		"serve.resp_bytes":              float64(w.bytes) / float64(len(w.ops)),
		"serve.wall_ops_per_s":          w.e.wallOpsPerS,
		"store.query_ms":                tr.layerMS("store.query", nil),
		"store.self_ms":                 tr.selfMS("store.query", "search.run", false, searches),
		"store.patterns_ms":             tr.layerMS("store.patterns", nil),
		"search.run_ms":                 tr.layerMS("search.run", nil),
		"search.fetch_rounds_per_query": float64(w.rounds) / float64(w.runs),
		"index.topk_ms":                 tr.layerMS("index.topk", nil),
		"textproc.tokenize_ms":          tr.layerMS("textproc.tokenize", nil),
	}
	reqs := make([]request, len(w.ops))
	for i, op := range w.ops {
		reqs[i] = op.req
	}
	out["serve.allocs_per_op"] = allocsPerOp(w.srv, reqs)
	wire, err := w.wire()
	if err != nil {
		return nil, err
	}
	out["wire.search_ms"] = wire
	out["wire.overhead_ms"] = wire - tr.layerMS("serve.handler", w.isClass(srTop10))
	return out, nil
}

// allocsPerOp counts the heap allocations of one pass of the requests
// through the handler, less what building the request and the recorder
// costs the benchmark itself.
func allocsPerOp(h http.Handler, reqs []request) float64 {
	count := func(h http.Handler) uint64 {
		var a, b runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&a)
		for _, rq := range reqs {
			call(h, rq)
		}
		runtime.ReadMemStats(&b)
		return b.Mallocs - a.Mallocs
	}
	own := count(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	return (float64(count(h)) - float64(own)) / float64(len(reqs))
}

// wire replays the top10 class through a real loopback listener: the
// from-outside view of the same requests. Nothing gated comes from here.
func (w *serveRead) wire() (float64, error) {
	ts := httptest.NewServer(w.srv)
	defer ts.Close()
	client := ts.Client()
	vals := map[opRound]float64{}
	for round := 0; round < 3; round++ {
		for i, op := range w.ops {
			if op.class != srTop10 {
				continue
			}
			start := time.Now()
			resp, err := client.Post(ts.URL+op.req.Target, "application/json", bytes.NewReader(op.req.Body))
			if err != nil {
				return 0, err
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil {
				return 0, err
			}
			vals[opRound{i, round}] = ms(time.Since(start).Nanoseconds())
		}
	}
	return replayed(vals, nil), nil
}

func (w *serveRead) close() {}
