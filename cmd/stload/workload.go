package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/url"
	"strings"

	"stburst"
	"stburst/internal/gen"
	"stburst/internal/geo"
	"stburst/internal/serve"
)

// The route labels of every request stload can send, written exactly as
// stserve's mux patterns so the report's per-route sections line up with
// the server's /metrics series.
const (
	routeSearch     = "POST /v1/search"
	routePatterns   = "GET /v1/patterns/{term}"
	routeStats      = "GET /v1/stats"
	routeGeneration = "GET /v1/generation"
	routeDocuments  = "POST /v1/documents"
	routeSubCreate  = "POST /v1/subscriptions"
	routeSubList    = "GET /v1/subscriptions"
	routeSubGet     = "GET /v1/subscriptions/{id}"
	routeSubDelete  = "DELETE /v1/subscriptions/{id}"
)

var allRoutes = []string{
	routeSearch, routePatterns, routeStats, routeGeneration, routeDocuments,
	routeSubCreate, routeSubList, routeSubGet, routeSubDelete,
}

// op is one fully materialized request: everything about it — route,
// method, path, body — is a pure function of (seed, op index), so a run
// with a fixed -requests count sends exactly the same set of requests no
// matter how many workers race to claim indexes.
type op struct {
	route  string
	method string
	path   string
	body   []byte
	docs   int // documents carried (ingest ops only)
}

// hash folds the request into one order-independent trace contribution.
func (o op) hash() uint64 {
	h := fnv.New64a()
	io.WriteString(h, o.method)
	h.Write([]byte{0})
	io.WriteString(h, o.path)
	h.Write([]byte{0})
	h.Write(o.body)
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler that
// turns (seed, counter) pairs into independent per-op RNG seeds.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// workload synthesizes the request mix from the same world model the
// corpus generator uses: event query terms and episode geography from
// gen.Events, the background vocabulary's "w%04d" zipf tail, and — for
// aiming regional hotspot queries — the stream locations corpusio.Load
// stamps onto every topix corpus, from gen.ProjectStreams (topix
// streams are always the full country list, so the projection is
// reproducible client-side without ever seeing the corpus).
type workload struct {
	cfg          config
	pts          []geo.Point // projected country locations, by gen.Countries index
	minX, minY   float64
	spanX, spanY float64
}

func newWorkload(cfg config) (*workload, error) {
	names := make([]string, len(gen.Countries))
	for i, c := range gen.Countries {
		names[i] = c.Name
	}
	infos, err := gen.ProjectStreams(names)
	if err != nil {
		return nil, fmt.Errorf("projecting countries: %w", err)
	}
	pts := make([]geo.Point, len(infos))
	for i, in := range infos {
		pts[i] = in.Location
	}
	w := &workload{cfg: cfg, pts: pts}
	w.minX, w.minY = pts[0].X, pts[0].Y
	maxX, maxY := pts[0].X, pts[0].Y
	for _, p := range pts[1:] {
		w.minX = min(w.minX, p.X)
		w.minY = min(w.minY, p.Y)
		maxX = max(maxX, p.X)
		maxY = max(maxY, p.Y)
	}
	w.spanX, w.spanY = maxX-w.minX, maxY-w.minY
	return w, nil
}

// op materializes request i. The mix: -write-fraction of the ops are
// ingest bursts, -subscribe-fraction are standing-query CRUD, and the
// read remainder splits 60% zipf term queries, 25% regional hotspot
// queries, 10% pattern lookups, 5% stats/generation.
func (w *workload) op(i uint64) op {
	rng := rand.New(rand.NewSource(int64(mix64(uint64(w.cfg.seed) ^ mix64(i)))))
	r := rng.Float64()
	if r < w.cfg.writeFraction {
		return w.ingestOp(rng)
	}
	if r < w.cfg.writeFraction+w.cfg.subscribeFraction {
		return w.subscribeOp(rng)
	}
	r = (r - w.cfg.writeFraction - w.cfg.subscribeFraction) /
		(1 - w.cfg.writeFraction - w.cfg.subscribeFraction)
	switch {
	case r < 0.60:
		return w.termQueryOp(rng)
	case r < 0.85:
		return w.hotspotOp(rng)
	case r < 0.95:
		return w.patternsOp(rng)
	default:
		return w.statsOp(rng)
	}
}

// backgroundWord draws from the corpus's zipf background vocabulary
// (same 1.2/4 shape the generator uses), so hot terms get queried hot.
func (w *workload) backgroundWord(rng *rand.Rand) string {
	z := rand.NewZipf(rng, 1.2, 4, uint64(w.cfg.vocab-1))
	return fmt.Sprintf("w%04d", z.Uint64())
}

func (w *workload) event(rng *rand.Rand) gen.Event {
	return gen.Events[rng.Intn(len(gen.Events))]
}

func (w *workload) termQueryOp(rng *rand.Rand) op {
	q := stburst.Query{K: 10}
	if rng.Float64() < 0.7 {
		q.Text = strings.Join(w.event(rng).Query, " ")
	} else {
		q.Text = w.backgroundWord(rng)
	}
	return jsonOp(routeSearch, "POST", "/v1/search", q, 0)
}

// hotspotOp aims a region+timeframe query at an event episode: a
// rectangle around the epicenter's projected location, a window around
// the episode's weeks — the query shape the paper's retrieval model
// (§5) exists to answer.
func (w *workload) hotspotOp(rng *rand.Rand) op {
	ev := w.event(rng)
	ep := ev.Episodes[rng.Intn(len(ev.Episodes))]
	p := w.pts[gen.CountryIndex(ep.Epicenter)]
	f := 0.03 + 0.09*rng.Float64()
	start := ep.Start
	if start >= w.cfg.timeline {
		start = rng.Intn(w.cfg.timeline)
	}
	end := start + max(ep.Length, 1) + rng.Intn(4)
	if end >= w.cfg.timeline {
		end = w.cfg.timeline - 1
	}
	q := stburst.Query{
		Text: strings.Join(ev.Query, " "),
		Region: &stburst.Rect{
			MinX: p.X - f*w.spanX, MinY: p.Y - f*w.spanY,
			MaxX: p.X + f*w.spanX, MaxY: p.Y + f*w.spanY,
		},
		Time: &stburst.Timespan{Start: start, End: end},
		K:    10,
	}
	return jsonOp(routeSearch, "POST", "/v1/search", q, 0)
}

func (w *workload) patternsOp(rng *rand.Rand) op {
	var term string
	if rng.Float64() < 0.8 {
		q := w.event(rng).Query
		term = q[rng.Intn(len(q))]
	} else {
		term = w.backgroundWord(rng)
	}
	return op{route: routePatterns, method: "GET", path: "/v1/patterns/" + url.PathEscape(term)}
}

// subscribeOp exercises the standing-query CRUD surface (server must
// run -subscriptions): mostly registrations of event-derived predicates
// (SSE-only — load runs have no webhook sink), the rest list/fetch/
// delete. Fetch and delete draw IDs from a small deterministic range, so
// some hit subscriptions this very run registered and the rest are
// honest 404s — both are valid outcomes the report tallies.
func (w *workload) subscribeOp(rng *rand.Rand) op {
	r := rng.Float64()
	switch {
	case r < 0.40:
		ev := w.event(rng)
		spec := stburst.Subscription{
			Owner:    "stload",
			Terms:    []string{ev.Query[rng.Intn(len(ev.Query))]},
			MinScore: rng.Float64(),
		}
		if rng.Float64() < 0.5 {
			spec.Kind = stburst.Kinds()[rng.Intn(len(stburst.Kinds()))]
		}
		return jsonOp(routeSubCreate, "POST", "/v1/subscriptions", spec, 0)
	case r < 0.60:
		return op{route: routeSubList, method: "GET", path: "/v1/subscriptions"}
	case r < 0.80:
		return op{route: routeSubGet, method: "GET", path: fmt.Sprintf("/v1/subscriptions/%d", 1+rng.Intn(64))}
	default:
		return op{route: routeSubDelete, method: "DELETE", path: fmt.Sprintf("/v1/subscriptions/%d", 1+rng.Intn(64))}
	}
}

func (w *workload) statsOp(rng *rand.Rand) op {
	if rng.Float64() < 0.5 {
		return op{route: routeStats, method: "GET", path: "/v1/stats"}
	}
	return op{route: routeGeneration, method: "GET", path: "/v1/generation"}
}

// ingestOp synthesizes a burst of 1-4 articles about one event episode:
// mostly from the epicenter country during the episode's weeks, with the
// occasional far-away pickup — the same shape the generator's reach
// model produces, so re-mining sees plausible dirty terms.
func (w *workload) ingestOp(rng *rand.Rand) op {
	ev := w.event(rng)
	ep := ev.Episodes[rng.Intn(len(ev.Episodes))]
	docs := make([]serve.Document, 1+rng.Intn(4))
	for j := range docs {
		country := ep.Epicenter
		if rng.Float64() < 0.3 {
			country = gen.Countries[rng.Intn(len(gen.Countries))].Name
		}
		t := ep.Start + rng.Intn(max(ep.Length, 1))
		if t >= w.cfg.timeline {
			t = rng.Intn(w.cfg.timeline)
		}
		words := append([]string(nil), ev.Query...)
		for k, n := 0, 3+rng.Intn(6); k < n; k++ {
			words = append(words, w.backgroundWord(rng))
		}
		docs[j] = serve.Document{Stream: country, Time: t, Text: strings.Join(words, " ")}
	}
	return jsonOp(routeDocuments, "POST", "/v1/documents", serve.DocumentsRequest{Documents: docs}, len(docs))
}

func jsonOp(route, method, path string, payload any, docs int) op {
	body, err := json.Marshal(payload)
	if err != nil {
		panic(err) // all payload types marshal by construction
	}
	return op{route: route, method: method, path: path, body: body, docs: docs}
}
