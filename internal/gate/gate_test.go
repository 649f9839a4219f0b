package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stburst"
	"stburst/internal/index"
	"stburst/internal/serve"
)

// gateCollection builds a corpus with two localized multi-week events
// over a background hum, so all three miners produce patterns and
// multi-term conjunctive queries return hits. Streams 0-1 and 2-3 sit
// in two distant city pairs for Region filtering.
func gateCollection(t testing.TB) *stburst.Collection { return repeatedGateCollection(t, 1) }

// repeatedGateCollection is gateCollection with every document added
// copies times: each term's frequency surface scales by copies, which
// leaves its patterns' shape alone and multiplies its posting list.
func repeatedGateCollection(t testing.TB, copies int) *stburst.Collection {
	t.Helper()
	col := stburst.NewCollection([]stburst.StreamInfo{
		{Name: "lima", Location: stburst.Point{X: 0, Y: 0}},
		{Name: "quito", Location: stburst.Point{X: 1, Y: 1}},
		{Name: "tokyo", Location: stburst.Point{X: 50, Y: 40}},
		{Name: "osaka", Location: stburst.Point{X: 52, Y: 41}},
		{Name: "cairo", Location: stburst.Point{X: -40, Y: 30}},
	}, 12)
	add := func(s, w int, text string) {
		t.Helper()
		for range copies {
			if _, err := col.AddText(s, w, text); err != nil {
				t.Fatal(err)
			}
		}
	}
	for w := 0; w < 12; w++ {
		add(0, w, "markets calm trading outlook")
		add(1, w, "football weather matches outlook")
		add(2, w, "exports quarterly report revenue")
		add(3, w, "shipping ports revenue")
		add(4, w, "culture museums heritage")
	}
	for w := 4; w <= 6; w++ {
		for i := 0; i < 3; i++ {
			add(0, w, "earthquake rescue tremors damage")
			add(1, w, "earthquake rescue aftershock damage")
		}
		add(0, w, "earthquake rescue")
	}
	for w := 7; w <= 9; w++ {
		for i := 0; i < 3; i++ {
			add(2, w, "flood relief rains damage")
			add(3, w, "flood relief evacuation damage")
		}
	}
	return col
}

// shardStores splits a mined store into n shard stores through the real
// bundle pipeline: Save -> SplitSets -> WriteBundleSharded -> LoadStore,
// exactly what stmine -shards and a booting stserve do.
func shardStores(t testing.TB, col *stburst.Collection, store *stburst.Store, n int) []*stburst.Store {
	t.Helper()
	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snaps, gen, err := index.ReadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	names := map[int]string{}
	sets := make([]*index.PatternSet, len(snaps))
	for i, snap := range snaps {
		sets[i] = snap.Set
		for j, id := range snap.Set.Terms() {
			names[id] = snap.Terms[j]
		}
	}
	term := func(id int) string { return names[id] }
	parts, err := index.SplitSets(sets, term, n)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]*stburst.Store, n)
	for i := range parts {
		var b bytes.Buffer
		info := index.ShardInfo{Shard: i, Shards: n, Scheme: index.ShardScheme, CorpusFingerprint: col.Checksum()}
		if err := index.WriteBundleSharded(&b, parts[i], term, gen, info); err != nil {
			t.Fatal(err)
		}
		if stores[i], err = stburst.LoadStore(&b, col); err != nil {
			t.Fatal(err)
		}
	}
	return stores
}

// bootGateway serves each store through a real serve.Server on its own
// listener and returns a polled gateway over them.
func bootGateway(t *testing.T, col *stburst.Collection, stores []*stburst.Store) *Gateway {
	t.Helper()
	urls := make([]string, len(stores))
	for i, st := range stores {
		srv := httptest.NewServer(serve.New(col, st, ""))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	g, err := New(Config{Members: urls, PollInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	g.Refresh(context.Background())
	return g
}

// searchResp is the slice of the search response the oracle compares.
type searchResp struct {
	Count int         `json:"count"`
	More  bool        `json:"more"`
	Hits  []searchHit `json:"hits"`
}

// searchHit is one hit of a search response.
type searchHit struct {
	Doc    int     `json:"doc"`
	Kind   string  `json:"kind"`
	Stream string  `json:"stream"`
	Time   int     `json:"time"`
	Score  float64 `json:"score"`
}

func doSearch(t *testing.T, h http.Handler, q stburst.Query) (int, searchResp) {
	t.Helper()
	body, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var sr searchResp
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
			t.Fatalf("decoding search response: %v\n%s", err, rec.Body.String())
		}
	}
	return rec.Code, sr
}

// oracleSearch answers a query from the unsharded store, shaped as the
// HTTP layer would serialize it.
func oracleSearch(t *testing.T, store *stburst.Store, q stburst.Query) (int, searchResp) {
	t.Helper()
	page, err := store.Query(context.Background(), q)
	switch {
	case errors.Is(err, stburst.ErrKindNotResident):
		return http.StatusNotFound, searchResp{}
	case err != nil:
		return http.StatusBadRequest, searchResp{}
	}
	sr := searchResp{Count: len(page.Hits), More: page.More, Hits: make([]searchHit, len(page.Hits))}
	for i, h := range page.Hits {
		sr.Hits[i] = searchHit{Doc: h.Doc.ID, Kind: h.Kind.String(), Stream: h.Stream, Time: h.Doc.Time, Score: h.Score}
	}
	return http.StatusOK, sr
}

func sameResp(a, b searchResp) bool {
	if a.Count != b.Count || a.More != b.More || len(a.Hits) != len(b.Hits) {
		return false
	}
	for i := range a.Hits {
		if a.Hits[i] != b.Hits[i] {
			return false
		}
	}
	return true
}

// oracleQueries is the sweep: every term shape (single, multi, duplicate,
// unknown, stopword-only, pre-split Terms), paginated and thresholded,
// with and without spatiotemporal filters. Kind is crossed in the test.
func oracleQueries(t *testing.T, store *stburst.Store) []stburst.Query {
	qs := []stburst.Query{
		{Text: "earthquake"},
		{Text: "rescue", K: 1},
		{Text: "flood relief", K: 3},
		{Text: "earthquake rescue"},
		{Text: "earthquake rescue tremors", K: 100},
		{Text: "earthquake rescue earthquake"}, // duplicate token doubles its score contribution
		{Text: "earthquake damage", K: 2, Offset: 1},
		{Text: "earthquake unknownzz"},
		{Text: "the of"}, // nothing survives tokenization
		{Text: "earthquake rescue", K: 1, Offset: 2},
		{Text: "earthquake rescue", Offset: 500},
		{Terms: []string{"earthquake rescue", "damage"}, K: 5},
		{Terms: []string{"flood"}, K: 2},
		{
			Text:   "earthquake rescue damage",
			Region: &stburst.Rect{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2},
			K:      50,
		},
		{
			Text: "earthquake rescue damage",
			Time: &stburst.Timespan{Start: 4, End: 5},
			K:    50,
		},
		{
			Text:   "flood damage",
			Region: &stburst.Rect{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2}, // far from streams 2-3
			Time:   &stburst.Timespan{Start: 0, End: 2},                 // and before the event
			K:      50,
		},
	}
	// MinScore boundary cases derived from the real ranking: the
	// threshold exactly at a hit's score keeps it (engine keeps
	// score >= MinScore); one ulp above drops it.
	page, err := store.Query(context.Background(), stburst.Query{Text: "earthquake rescue", K: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Hits) >= 2 {
		s := page.Hits[1].Score
		qs = append(qs,
			stburst.Query{Text: "earthquake rescue", K: 100, MinScore: s},
			stburst.Query{Text: "earthquake rescue", K: 100, MinScore: math.Nextafter(s, math.Inf(1))},
		)
	}
	return qs
}

// TestGatewayMatchesUnshardedStore is the merge oracle: over 1-, 2- and
// 4-shard topologies, every query in the sweep, crossed with every kind,
// must come back byte-identical (hits, scores, order, count, More) to
// the unsharded Store.Query.
func TestGatewayMatchesUnshardedStore(t *testing.T) {
	col := gateCollection(t)
	store, err := col.MineStore(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := oracleQueries(t, store)
	kinds := []stburst.Kind{stburst.KindAny, stburst.KindRegional, stburst.KindCombinatorial, stburst.KindTemporal}
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("%dshard", shards), func(t *testing.T) {
			g := bootGateway(t, col, shardStores(t, col, store, shards))
			nonEmpty := 0
			for qi, base := range queries {
				for _, kind := range kinds {
					q := base
					q.Kind = kind
					wantCode, want := oracleSearch(t, store, q)
					gotCode, got := doSearch(t, g, q)
					if gotCode != wantCode {
						t.Errorf("query %d kind %v: gateway status %d, oracle %d", qi, kind, gotCode, wantCode)
						continue
					}
					if gotCode == http.StatusOK && !sameResp(got, want) {
						t.Errorf("query %d kind %v (%+v):\ngateway: %+v\noracle:  %+v", qi, kind, q, got, want)
					}
					if got.Count > 0 {
						nonEmpty++
					}
				}
			}
			if nonEmpty == 0 {
				t.Fatal("oracle sweep never produced a hit; the corpus is not exercising the merge")
			}
			// The sweep must exercise the cross-shard join, not just
			// single-owner forwarding, on real multi-shard topologies.
			if shards > 1 {
				if n := metricValue(t, g, `stgate_fanout_seconds_count{path="scatter"}`); n == 0 {
					t.Error("no query took the scatter path; the sweep is not covering the join")
				}
			}
		})
	}
}

// metricValue scrapes one series from the gateway's registry.
func metricValue(t *testing.T, g *Gateway, series string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// TestGatewayPatternsRoute: the gateway proxies pattern lookups to the
// owning shard, whose answer — found or 404 — is byte-identical to the
// unsharded server's, including the kind/from/to filters and the
// normalization of raw user input to a dictionary term.
func TestGatewayPatternsRoute(t *testing.T) {
	col := gateCollection(t)
	store, err := col.MineStore(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := httptest.NewServer(serve.New(col, store, ""))
	defer ref.Close()
	g := bootGateway(t, col, shardStores(t, col, store, 3))

	paths := []string{
		"/v1/patterns/earthquake",
		"/v1/patterns/flood",
		"/v1/patterns/damage?kind=regional",
		"/v1/patterns/rescue?from=4&to=6",
		"/v1/patterns/EARTHQUAKE%20Rescue", // normalizes to "earthquake"
		"/v1/patterns/%22Flood%21%22",      // normalizes to "flood"
		"/v1/patterns/zzz-not-a-term",
	}
	for _, p := range paths {
		wantResp, err := http.Get(ref.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(wantResp.StatusCode)
		wantBody := readAll(t, wantResp)

		req := httptest.NewRequest(http.MethodGet, p, nil)
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, req)
		if rec.Code != wantResp.StatusCode {
			t.Errorf("%s: gateway status %d, unsharded %s", p, rec.Code, want)
			continue
		}
		if rec.Body.String() != wantBody {
			t.Errorf("%s: gateway body differs from the unsharded server\ngateway: %s\nwant:    %s", p, rec.Body.String(), wantBody)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestGatewayRefusesMixedGenerations: two shard bundles written at
// different store generations never serve together.
func TestGatewayRefusesMixedGenerations(t *testing.T) {
	col := gateCollection(t)
	store, err := col.MineStore(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	stores := shardStores(t, col, store, 2)
	// Rewrite shard 1's bundle at a later generation, as if it had been
	// re-mined after an ingest the other shard never saw.
	stores[1] = regenerateShard(t, col, store, 1, 2, 7, col.Checksum())
	g := bootGateway(t, col, stores)

	for _, p := range []string{"/v1/generation", "/v1/healthz"} {
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("GET %s = %d with mixed generations, want 503", p, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "mixed generations") {
			t.Errorf("GET %s body does not name the refusal: %s", p, rec.Body.String())
		}
	}
	code, _ := doSearch(t, g, stburst.Query{Text: "earthquake"})
	if code != http.StatusServiceUnavailable {
		t.Errorf("search = %d with mixed generations, want 503", code)
	}
}

// TestGatewayRefusesMixedCorpora: shard bundles mined from different
// corpora (different recorded fingerprints) never serve together.
func TestGatewayRefusesMixedCorpora(t *testing.T) {
	col := gateCollection(t)
	store, err := col.MineStore(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	stores := shardStores(t, col, store, 2)
	stores[1] = regenerateShard(t, col, store, 1, 2, 0, strings.Repeat("cd", 32))
	g := bootGateway(t, col, stores)

	code, _ := doSearch(t, g, stburst.Query{Text: "earthquake"})
	if code != http.StatusServiceUnavailable {
		t.Errorf("search = %d with mixed corpora, want 503", code)
	}
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "mixed corpora") {
		t.Errorf("healthz = %d %s, want 503 naming mixed corpora", rec.Code, rec.Body.String())
	}
}

// regenerateShard rewrites one shard's bundle with a chosen generation
// and corpus fingerprint.
func regenerateShard(t *testing.T, col *stburst.Collection, store *stburst.Store, shard, shards int, gen uint64, fp string) *stburst.Store {
	t.Helper()
	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snaps, _, err := index.ReadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	names := map[int]string{}
	sets := make([]*index.PatternSet, len(snaps))
	for i, snap := range snaps {
		sets[i] = snap.Set
		for j, id := range snap.Set.Terms() {
			names[id] = snap.Terms[j]
		}
	}
	term := func(id int) string { return names[id] }
	parts, err := index.SplitSets(sets, term, shards)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	info := index.ShardInfo{Shard: shard, Shards: shards, Scheme: index.ShardScheme, CorpusFingerprint: fp}
	if err := index.WriteBundleSharded(&b, parts[shard], term, gen, info); err != nil {
		t.Fatal(err)
	}
	st, err := stburst.LoadStore(&b, col)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestGatewayShardDown: losing a member degrades it after one failed
// poll (the member table still stands, but requests needing it fail
// strictly) and marks it down after three, refusing all reads.
func TestGatewayShardDown(t *testing.T) {
	col := gateCollection(t)
	store, err := col.MineStore(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	stores := shardStores(t, col, store, 2)
	urls := make([]string, len(stores))
	servers := make([]*httptest.Server, len(stores))
	for i, st := range stores {
		servers[i] = httptest.NewServer(serve.New(col, st, ""))
		urls[i] = servers[i].URL
	}
	defer servers[0].Close()
	g, err := New(Config{Members: urls, PollInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	g.Refresh(ctx)

	// Pick a term owned by the shard about to die.
	victim := g.members[1].view().Health.Shard
	var term string
	for _, tm := range col.Terms() {
		if stburst.TermShard(tm, 2) == victim {
			term = tm
			break
		}
	}
	if term == "" {
		t.Fatal("no term owned by the victim shard")
	}
	if code, _ := doSearch(t, g, stburst.Query{Text: term}); code != http.StatusOK {
		t.Fatalf("healthy cluster search = %d, want 200", code)
	}

	servers[1].Close()
	g.Refresh(ctx)
	// One failure: degraded, the table still stands — but the strict
	// request path refuses queries that need the dead shard.
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"degraded"`) {
		t.Errorf("healthz after one failed poll = %d %s, want 200 with a degraded member", rec.Code, rec.Body.String())
	}
	if code, _ := doSearch(t, g, stburst.Query{Text: term}); code != http.StatusServiceUnavailable {
		t.Errorf("search needing the dead shard = %d, want 503", code)
	}

	g.Refresh(ctx)
	g.Refresh(ctx)
	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "down") {
		t.Errorf("healthz after three failed polls = %d %s, want 503 naming the down member", rec.Code, rec.Body.String())
	}
	for _, p := range []string{"/v1/generation", "/v1/stats"} {
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("GET %s with a down member = %d, want 503", p, rec.Code)
		}
	}
}

// TestGatewaySurface: the auxiliary routes — aggregated stats, cluster
// generation, the read-only write surface, bad queries, and the metrics
// exposition.
func TestGatewaySurface(t *testing.T) {
	col := gateCollection(t)
	store, err := col.MineStore(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	g := bootGateway(t, col, shardStores(t, col, store, 3))

	get := func(p string) (int, map[string]any) {
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
		var body map[string]any
		json.Unmarshal(rec.Body.Bytes(), &body)
		return rec.Code, body
	}

	code, stats := get("/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if got := stats["docs"]; got != float64(col.NumDocs()) {
		t.Errorf("stats docs = %v, want %d", got, col.NumDocs())
	}
	cluster, _ := stats["cluster"].(map[string]any)
	if cluster == nil || cluster["shards"] != float64(3) {
		t.Errorf("stats cluster block = %v, want shards 3", stats["cluster"])
	}
	if cluster != nil && cluster["fingerprint"] != col.Checksum() {
		t.Errorf("stats cluster fingerprint = %v, want the corpus checksum", cluster["fingerprint"])
	}
	if members, _ := cluster["members"].([]any); len(members) != 3 {
		t.Errorf("stats cluster members = %v, want 3 entries", cluster["members"])
	}

	code, gen := get("/v1/generation")
	if code != http.StatusOK || gen["generation"] != float64(store.Generation()) {
		t.Errorf("generation = %d %v, want 200 generation %d", code, gen, store.Generation())
	}

	code, hz := get("/v1/healthz")
	if code != http.StatusOK || hz["status"] != "ok" || hz["shards"] != float64(3) {
		t.Errorf("healthz = %d %v, want ok over 3 shards", code, hz)
	}

	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/documents",
		strings.NewReader(`{"documents":[{"stream":"lima","time":1,"text":"x"}]}`)))
	if rec.Code != http.StatusForbidden {
		t.Errorf("documents = %d, want 403: the gateway is read-only", rec.Code)
	}

	// The standing-query surface answers 501 with a JSON reason — not
	// 404 — so clients learn the surface exists on unsharded stserve.
	for _, probe := range []struct{ method, path string }{
		{http.MethodPost, "/v1/subscriptions"},
		{http.MethodGet, "/v1/subscriptions"},
		{http.MethodGet, "/v1/subscriptions/7"},
		{http.MethodDelete, "/v1/subscriptions/7"},
		{http.MethodGet, "/v1/alerts/stream"},
	} {
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest(probe.method, probe.path, nil))
		if rec.Code != http.StatusNotImplemented {
			t.Errorf("%s %s = %d, want 501", probe.method, probe.path, rec.Code)
		}
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s %s body is not JSON: %v", probe.method, probe.path, err)
		}
		reason, _ := body["error"].(string)
		if !strings.Contains(reason, "unsharded stserve") {
			t.Errorf("%s %s reason %q does not point at unsharded stserve", probe.method, probe.path, reason)
		}
	}

	for _, bad := range []string{
		`{"text":"x","nope":1}`, // unknown field
		`{}`,                    // neither text nor terms
		`{"text":"x","terms":["y"]}`,
		`{"text":"x","k":-1}`,
	} {
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(bad)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("search(%s) = %d, want 400", bad, rec.Code)
		}
	}
	// The gateway caps the search body exactly as the members do.
	oversize := `{"text":"` + strings.Repeat("a", serve.MaxBody) + `"}`
	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(oversize)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("search with a %d-byte body = %d, want 413", len(oversize), rec.Code)
	}

	doSearch(t, g, stburst.Query{Text: "earthquake rescue"})
	var buf bytes.Buffer
	if err := g.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`stgate_http_requests_total{route="POST /v1/search",code="2xx"}`,
		`stgate_http_requests_total{route="GET /v1/stats",code="2xx"}`,
		`stgate_members 3`,
		`stgate_members_down 0`,
		"stgate_upstream_requests_total",
		"stgate_fanout_seconds",
	} {
		if !strings.Contains(buf.String(), series) {
			t.Errorf("/metrics lacks %s", series)
		}
	}
}
