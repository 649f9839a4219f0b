package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stburst"
	"stburst/internal/core"
	"stburst/internal/geo"
	"stburst/internal/index"
	"stburst/internal/interval"
)

// searchWith posts a query with shipped bundles and returns the status
// and body.
func searchWith(t testing.TB, h http.Handler, text string, bundles ...[]byte) (int, string) {
	t.Helper()
	body, err := json.Marshal(SearchRequest{Query: stburst.Query{Text: text}, Patterns: bundles})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// oneTermBundle writes a regional bundle holding one window for the term
// "earthquake", stamped as the store's own unless gen or corpus say
// otherwise.
func oneTermBundle(t *testing.T, w core.Window, gen uint64, corpus string) []byte {
	t.Helper()
	set := index.NewWindowSet(map[int][]core.Window{0: {w}})
	var b bytes.Buffer
	info := index.ShardInfo{Shards: 1, CorpusFingerprint: corpus}
	if err := index.WriteBundleSharded(&b, []*index.PatternSet{set}, func(int) string { return "earthquake" }, gen, info); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestServerSearchShippedPatterns: shipped bundles are hostile input.
// The term route's own bundle is accepted and changes nothing for a term
// already resident; bytes that do not decode, or patterns that do not
// fit the corpus, are a 400; a bundle of another generation or corpus is
// a 503 naming which.
func TestServerSearchShippedPatterns(t *testing.T) {
	_, store, srv := multiKindServer(t, "")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/patterns/earthquake/bundle", nil))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/octet-stream" {
		t.Fatalf("term bundle = %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	own := rec.Body.Bytes()
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/patterns/zzz-unknown/bundle", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("unknown term's bundle = %d, want 200 with empty members", rec.Code)
	}

	_, plain := searchWith(t, srv, "earthquake")
	code, shipped := searchWith(t, srv, "earthquake", own)
	strip := func(body string) string { return body[:strings.Index(body, `"took_ms"`)] }
	if code != http.StatusOK || strip(shipped) != strip(plain) {
		t.Errorf("search shipping the resident term's own bundle = %d\n%s\nwant\n%s", code, shipped, plain)
	}

	gen := store.Generation()
	good := core.Window{Rect: geo.Rect{MaxX: 3, MaxY: 2}, Streams: []int{0, 1}, Start: 5, End: 7, Score: 1}
	bad := func(edit func(w *core.Window)) []byte {
		w := good
		w.Streams = append([]int(nil), good.Streams...)
		edit(&w)
		return oneTermBundle(t, w, gen, "")
	}
	for _, tc := range []struct {
		name   string
		bundle []byte
		code   int
		reason string
	}{
		{"fits", oneTermBundle(t, good, gen, ""), http.StatusOK, ""},
		{"undecodable", []byte("this is not a pattern bundle"), http.StatusBadRequest, "bad magic"},
		{"truncated", own[:len(own)-1], http.StatusBadRequest, "bundle"},
		{"stream out of range", bad(func(w *core.Window) { w.Streams[1] = 3 }), http.StatusBadRequest, "stream 3"},
		{"time out of range", bad(func(w *core.Window) { w.End = 12 }), http.StatusBadRequest, "timeline"},
		{"non-finite score", bad(func(w *core.Window) { w.Score = math.NaN() }), http.StatusBadRequest, "not finite"},
		{"other generation", oneTermBundle(t, good, gen+1, ""), http.StatusServiceUnavailable, "generation"},
		{"other corpus", oneTermBundle(t, good, gen, strings.Repeat("cd", 32)), http.StatusServiceUnavailable, "corpus"},
	} {
		code, body := searchWith(t, srv, "earthquake", tc.bundle)
		if code != tc.code || !strings.Contains(body, tc.reason) {
			t.Errorf("%s: search = %d %s, want %d naming %q", tc.name, code, body, tc.code, tc.reason)
		}
	}
	// Base64 that does not decode never reaches the store.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(`{"text":"earthquake","patterns":["%%%"]}`)))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("undecodable base64 = %d, want 400", rec.Code)
	}
}

// FuzzSearchBody: on arbitrary POST /v1/search bodies — raw, and with
// the fuzzed bundle spliced into the patterns field of a body that
// decodes — the handler never panics, and every body it answers 200
// holds a query that passes Query.Validate and bundles whose every
// member decodes, re-interns into the collection and passes
// PatternSet.Validate.
func FuzzSearchBody(f *testing.F) {
	c := serveCollection(f)
	store, err := c.MineStore(f.Context(), nil)
	if err != nil {
		f.Fatal(err)
	}
	srv := New(c, store, "")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/patterns/earthquake/bundle", nil))
	own := rec.Body.Bytes()
	f.Add([]byte(`{"text":"earthquake rescue","kind":"regional"}`), own)
	f.Add([]byte(`{"terms":["earthquake"],"region":{"min_x":0,"min_y":0,"max_x":3,"max_y":2},"time":{"start":5,"end":7},"k":3}`), own)
	f.Add([]byte(`{"text":"x","patterns":[]}`), []byte("not a bundle"))

	known := map[string]int{}
	for i, term := range c.Terms() {
		known[term] = i
	}
	lookup := func(term string) (int, bool) { id, ok := known[term]; return id, ok }
	check := func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return
		}
		var req SearchRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("accepted body does not decode: %v", err)
		}
		if err := req.Query.Validate(); err != nil {
			t.Fatalf("accepted query is invalid: %v", err)
		}
		for _, raw := range req.Patterns {
			b, err := index.ReadStore(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("accepted bundle does not decode: %v", err)
			}
			for _, snap := range b.Snaps {
				set, err := snap.Remap(lookup)
				if err != nil {
					t.Fatalf("accepted bundle names a foreign term: %v", err)
				}
				if err := set.Validate(c.NumStreams(), c.Timeline()); err != nil {
					t.Fatalf("accepted bundle does not fit the collection: %v", err)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, body, bundle []byte) {
		check(t, body)
		var req map[string]any
		if json.Unmarshal(body, &req) != nil || req == nil {
			return
		}
		req["patterns"] = [][]byte{bundle}
		spliced, err := json.Marshal(req)
		if err != nil {
			return
		}
		check(t, spliced)
	})
}

// TestNonFiniteGeometryRefused: a bundle whose regional rectangle or
// combinatorial interval weight is not finite is refused wherever a
// bundle enters — at load, and shipped with a search (400) — and never
// reaches the pattern listing, which could not encode it.
func TestNonFiniteGeometryRefused(t *testing.T) {
	c, store, srv := multiKindServer(t, "")
	gen := store.Generation()
	bundle := func(set *index.PatternSet) []byte {
		var b bytes.Buffer
		if err := index.WriteBundleSharded(&b, []*index.PatternSet{set}, func(int) string { return "earthquake" }, gen, index.ShardInfo{Shards: 1}); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rect := index.NewWindowSet(map[int][]core.Window{0: {{Rect: geo.Rect{MinX: bad, MaxX: 3, MaxY: 2}, Streams: []int{0, 1}, Start: 5, End: 7, Score: 1}}})
		weight := index.NewCombSet(map[int][]core.CombPattern{0: {{Streams: []int{0, 1}, Start: 5, End: 7, Score: 1,
			Intervals: []interval.Interval{{Stream: 0, Start: 5, End: 7, Weight: bad}, {Stream: 1, Start: 5, End: 7, Weight: 1}}}}})
		for name, tc := range map[string]struct {
			set    *index.PatternSet
			reason string
		}{"rect": {rect, "rect"}, "weight": {weight, "weight"}} {
			b := bundle(tc.set)
			if _, err := stburst.LoadStore(bytes.NewReader(b), c); err == nil || !strings.Contains(err.Error(), "not finite") || !strings.Contains(err.Error(), tc.reason) {
				t.Errorf("LoadStore of a %s %v bundle: %v, want an error naming the non-finite %s", name, bad, err, tc.reason)
			}
			if code, body := searchWith(t, srv, "earthquake", b); code != http.StatusBadRequest || !strings.Contains(body, "not finite") {
				t.Errorf("search shipping a %s %v bundle = %d %s, want 400 naming it", name, bad, code, body)
			}
		}
	}
}

// TestTermBundleKind: GET /v1/patterns/{term}/bundle takes the listing
// route's ?kind=. A concrete kind ships that kind's member alone, byte
// for byte the member the all-kind bundle holds; an absent kind and
// "any" ship the all-kind bundle Store.SaveTerm writes by default; a
// kind ParseKind refuses is a 400 with its message.
func TestTermBundleKind(t *testing.T) {
	_, store, srv := multiKindServer(t, "")
	fetch := func(query string) (int, []byte) {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/patterns/earthquake/bundle"+query, nil))
		return rec.Code, rec.Body.Bytes()
	}
	var all bytes.Buffer
	if err := store.SaveTerm(&all, "earthquake"); err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{"", "?kind=any"} {
		if code, body := fetch(query); code != http.StatusOK || !bytes.Equal(body, all.Bytes()) {
			t.Errorf("bundle%s = %d, %d bytes; want 200 and the %d-byte all-kind bundle", query, code, len(body), all.Len())
		}
	}
	whole, err := index.ReadStore(bytes.NewReader(all.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(whole.Snaps) != 3 {
		t.Fatalf("the all-kind bundle holds %d members, want 3", len(whole.Snaps))
	}
	for i, kind := range stburst.Kinds() {
		code, body := fetch("?kind=" + kind.String())
		if code != http.StatusOK {
			t.Fatalf("bundle?kind=%v = %d", kind, code)
		}
		if len(body) >= all.Len() {
			t.Errorf("bundle?kind=%v is %d bytes, not below the all-kind bundle's %d", kind, len(body), all.Len())
		}
		one, err := index.ReadStore(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("bundle?kind=%v: %v", kind, err)
		}
		if len(one.Snaps) != 1 || one.Snaps[0].Set.Kind().String() != kind.String() {
			t.Fatalf("bundle?kind=%v holds %d members, want one of that kind", kind, len(one.Snaps))
		}
		if got, want := one.Snaps[0].Set.Fingerprint(), whole.Snaps[i].Set.Fingerprint(); got != want {
			t.Errorf("bundle?kind=%v member fingerprint %s, the all-kind bundle's %s", kind, got, want)
		}
		if one.Generation != whole.Generation || one.Shard != whole.Shard {
			t.Errorf("bundle?kind=%v stamped %d %+v, the all-kind bundle %d %+v", kind, one.Generation, one.Shard, whole.Generation, whole.Shard)
		}
	}
	_, want := stburst.ParseKind("nope")
	code, body := fetch("?kind=nope")
	var refusal struct{ Error string }
	if err := json.Unmarshal(body, &refusal); code != http.StatusBadRequest || err != nil || refusal.Error != want.Error() {
		t.Errorf("bundle?kind=nope = %d %s, want 400 with %q", code, body, want)
	}
}
