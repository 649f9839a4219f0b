package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"stburst"
	"stburst/internal/index"
)

// serveCollection builds a small deterministic corpus with one strongly
// localized burst so every engine kind has patterns to serve.
func serveCollection(t testing.TB) *stburst.Collection {
	t.Helper()
	streams := []stburst.StreamInfo{
		{Name: "lima", Location: stburst.Point{X: 0, Y: 0}},
		{Name: "quito", Location: stburst.Point{X: 3, Y: 2}},
		{Name: "tokyo", Location: stburst.Point{X: 95, Y: 80}},
	}
	c := stburst.NewCollection(streams, 12)
	add := func(s, w int, text string) {
		t.Helper()
		if _, err := c.AddText(s, w, text); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 12; w++ {
		add(0, w, "markets steady calm trading")
		add(1, w, "football results weather outlook")
		add(2, w, "technology exports quarterly report")
	}
	for w := 5; w <= 7; w++ {
		for i := 0; i < 4; i++ {
			add(0, w, "earthquake shakes coast rescue earthquake")
			add(1, w, "earthquake tremors border region")
		}
	}
	return c
}

// mineStore mines the given kinds (all three when none is named) into a
// store over the collection.
func mineStore(t testing.TB, c *stburst.Collection, kinds ...stburst.Kind) *stburst.Store {
	t.Helper()
	s, err := c.MineStore(context.Background(), nil, kinds...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// get performs a request against the handler and decodes the JSON body.
func get(t *testing.T, h http.Handler, url string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q, want application/json", url, ct)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("%s: invalid JSON response %q: %v", url, rec.Body.String(), err)
	}
	return rec.Code, body
}

func TestServerHealthz(t *testing.T) {
	c := serveCollection(t)
	s := New(c, mineStore(t, c, stburst.KindRegional), "")
	code, body := get(t, s, "/v1/healthz")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Errorf("GET /v1/healthz = %d %v, want 200 ok", code, body)
	}
}

func TestServerStats(t *testing.T) {
	c := serveCollection(t)
	store := mineStore(t, c, stburst.KindRegional)
	ix := store.Index(stburst.KindRegional)
	s := New(c, store, "")
	code, body := get(t, s, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d, want 200", code)
	}
	if int(body["docs"].(float64)) != c.NumDocs() {
		t.Errorf("stats docs %v, want %d", body["docs"], c.NumDocs())
	}
	// The stats request itself is counted.
	if int(body["requests"].(float64)) < 1 {
		t.Errorf("stats requests %v, want >= 1", body["requests"])
	}
	indexes, ok := body["indexes"].([]any)
	if !ok || len(indexes) != 1 {
		t.Fatalf("stats indexes %v, want one entry", body["indexes"])
	}
	entry := indexes[0].(map[string]any)
	if entry["kind"] != "regional" {
		t.Errorf("stats index kind %v, want regional", entry["kind"])
	}
	if entry["fingerprint"] != ix.Fingerprint() {
		t.Errorf("stats index fingerprint %v, want %s", entry["fingerprint"], ix.Fingerprint())
	}
	if int(entry["terms"].(float64)) != ix.NumTerms() {
		t.Errorf("stats index terms %v, want %d", entry["terms"], ix.NumTerms())
	}
	// The index fields live only in the indexes array.
	for _, key := range []string{"kind", "terms", "patterns", "fingerprint"} {
		if v, ok := body[key]; ok {
			t.Errorf("stats carries a top-level %q (%v)", key, v)
		}
	}
}

func TestServerPatterns(t *testing.T) {
	c := serveCollection(t)
	for _, k := range stburst.Kinds() {
		kind := k.String()
		t.Run(kind, func(t *testing.T) {
			s := New(c, mineStore(t, c, k), "")
			code, body := get(t, s, "/v1/patterns/earthquake")
			if code != http.StatusOK {
				t.Fatalf("GET /v1/patterns/earthquake = %d, want 200", code)
			}
			if body["kind"] != kind || body["term"] != "earthquake" {
				t.Errorf("patterns response kind=%v term=%v, want %s earthquake", body["kind"], body["term"], kind)
			}
			patterns, ok := body["patterns"].([]any)
			if !ok || len(patterns) == 0 {
				t.Fatalf("patterns response has no patterns: %v", body)
			}
			first, ok := patterns[0].(map[string]any)
			if !ok {
				t.Fatalf("pattern entry is %T, want object", patterns[0])
			}
			if _, ok := first["score"]; !ok {
				t.Errorf("pattern entry missing score: %v", first)
			}
			if first["kind"] != kind {
				t.Errorf("pattern entry kind %v, want %s", first["kind"], kind)
			}
			if kind == "regional" {
				if _, ok := first["rect"]; !ok {
					t.Errorf("regional pattern missing rect: %v", first)
				}
			}

			code, body = get(t, s, "/v1/patterns/nosuchterm")
			if code != http.StatusNotFound {
				t.Errorf("GET /v1/patterns/nosuchterm = %d %v, want 404", code, body)
			}
		})
	}
}

func TestServerSearch(t *testing.T) {
	c := serveCollection(t)
	store := mineStore(t, c, stburst.KindRegional)
	s := New(c, store, "")
	search := func(text string) []stburst.Hit {
		t.Helper()
		page, err := store.Query(context.Background(), stburst.Query{Text: text, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		return page.Hits
	}

	code, body := postJSON(t, s, "/v1/search", `{"text":"earthquake","k":5}`)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/search = %d %v, want 200", code, body)
	}
	hits, ok := body["hits"].([]any)
	if !ok || len(hits) == 0 {
		t.Fatalf("search returned no hits: %v", body)
	}
	want := search("earthquake")
	if len(hits) != len(want) {
		t.Fatalf("search returned %d hits over HTTP, %d in process", len(hits), len(want))
	}
	first := hits[0].(map[string]any)
	if int(first["doc"].(float64)) != want[0].Doc.ID || first["stream"] != want[0].Stream {
		t.Errorf("first hit %v, want doc %d stream %s", first, want[0].Doc.ID, want[0].Stream)
	}
	if first["kind"] != "regional" {
		t.Errorf("hit %v is not tagged with the kind that scored it", first)
	}

	// A query term outside every pattern yields an empty hit list, not an
	// error (Eq. 10: the document set is empty, the query is still valid).
	code, body = postJSON(t, s, "/v1/search", `{"text":"markets","k":5}`)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/search markets = %d %v, want 200", code, body)
	}
	if n := int(body["count"].(float64)); n != len(search("markets")) {
		t.Errorf("background-term search: %d hits over HTTP, %d in process", n, len(search("markets")))
	}
}

func TestServerSearchValidation(t *testing.T) {
	c := serveCollection(t)
	s := New(c, mineStore(t, c, stburst.KindRegional), "")
	for _, q := range []string{`{}`, `{"text":""}`, `{"text":"earthquake","k":-3}`, `{"text":"earthquake","k":"abc"}`} {
		if code, body := postJSON(t, s, "/v1/search", q); code != http.StatusBadRequest {
			t.Errorf("POST /v1/search %s = %d %v, want 400", q, code, body)
		} else if _, ok := body["error"]; !ok {
			t.Errorf("POST /v1/search %s: 400 body missing error field: %v", q, body)
		}
	}
}

func TestServerMethodAndRouteErrors(t *testing.T) {
	c := serveCollection(t)
	s := New(c, mineStore(t, c, stburst.KindRegional), "")

	req := httptest.NewRequest(http.MethodPost, "/v1/patterns/earthquake", strings.NewReader(""))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/patterns/earthquake = %d, want 405", rec.Code)
	}

	req = httptest.NewRequest(http.MethodGet, "/nosuchroute", nil)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET /nosuchroute = %d, want 404", rec.Code)
	}

	// Reload is POST-only.
	req = httptest.NewRequest(http.MethodGet, "/v1/reload", nil)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/reload = %d, want 405", rec.Code)
	}
}

func TestServerConcurrentReads(t *testing.T) {
	c := serveCollection(t)
	s := New(c, mineStore(t, c, stburst.KindRegional), "")
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				if code, _ := postJSON(t, s, "/v1/search", `{"text":"earthquake","k":3}`); code != http.StatusOK {
					t.Errorf("concurrent search returned %d", code)
					return
				}
				if code, _ := get(t, s, "/v1/patterns/earthquake"); code != http.StatusOK {
					t.Errorf("concurrent patterns returned %d", code)
					return
				}
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// postJSON performs a POST with a JSON body against the handler.
func postJSON(t *testing.T, h http.Handler, url, body string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s: invalid JSON response %q: %v", url, rec.Body.String(), err)
	}
	return rec.Code, out
}

// TestServerV1Aliases: the versioned routes are the only ones. Each read
// route answers under /v1, and its retired unversioned alias is a 404.
func TestServerV1Aliases(t *testing.T) {
	c := serveCollection(t)
	s := New(c, mineStore(t, c, stburst.KindRegional), "")
	for _, path := range []string{"/healthz", "/stats", "/patterns/earthquake"} {
		if code, body := get(t, s, "/v1"+path); code != http.StatusOK {
			t.Errorf("GET /v1%s = %d %v, want 200", path, code, body)
		}
	}
	for _, path := range []string{"/healthz", "/stats", "/patterns/earthquake", "/search?q=earthquake&k=3"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404: the unversioned aliases are retired", path, rec.Code)
		}
	}
}

// TestServerV1SearchRoundTrip: POST /v1/search returns exactly the hits
// the in-process Query produces, for plain and filtered queries.
func TestServerV1SearchRoundTrip(t *testing.T) {
	c := serveCollection(t)
	store := mineStore(t, c, stburst.KindRegional)
	s := New(c, store, "")
	cases := []struct {
		name string
		body string
		q    stburst.Query
	}{
		{"plain", `{"text":"earthquake","k":5}`, stburst.Query{Text: "earthquake", K: 5}},
		{"terms", `{"terms":["earthquake","rescue"],"k":5}`, stburst.Query{Terms: []string{"earthquake", "rescue"}, K: 5}},
		{"kind", `{"text":"earthquake","kind":"regional","k":5}`, stburst.Query{Text: "earthquake", Kind: stburst.KindRegional, K: 5}},
		{"region", `{"text":"earthquake","k":50,"region":{"min_x":-1,"min_y":-1,"max_x":4,"max_y":3}}`,
			stburst.Query{Text: "earthquake", K: 50, Region: &stburst.Rect{MinX: -1, MinY: -1, MaxX: 4, MaxY: 3}}},
		{"time", `{"text":"earthquake","k":50,"time":{"start":5,"end":7}}`,
			stburst.Query{Text: "earthquake", K: 50, Time: &stburst.Timespan{Start: 5, End: 7}}},
		{"paged", `{"text":"earthquake","k":3,"offset":2}`, stburst.Query{Text: "earthquake", K: 3, Offset: 2}},
		{"min_score", `{"text":"earthquake","k":50,"min_score":1}`, stburst.Query{Text: "earthquake", K: 50, MinScore: 1}},
		{"no hits", `{"text":"markets","k":5}`, stburst.Query{Text: "markets", K: 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := store.Query(context.Background(), tc.q)
			if err != nil {
				t.Fatal(err)
			}
			code, body := postJSON(t, s, "/v1/search", tc.body)
			if code != http.StatusOK {
				t.Fatalf("POST /v1/search = %d %v, want 200", code, body)
			}
			hits, _ := body["hits"].([]any)
			if len(hits) != len(want.Hits) {
				t.Fatalf("HTTP returned %d hits, in-process %d", len(hits), len(want.Hits))
			}
			for i, raw := range hits {
				h := raw.(map[string]any)
				if int(h["doc"].(float64)) != want.Hits[i].Doc.ID ||
					h["stream"] != want.Hits[i].Stream ||
					int(h["time"].(float64)) != want.Hits[i].Doc.Time ||
					h["score"].(float64) != want.Hits[i].Score ||
					h["kind"] != "regional" {
					t.Errorf("hit %d: HTTP %v, in-process %+v", i, h, want.Hits[i])
				}
			}
			if more, _ := body["more"].(bool); more != want.More {
				t.Errorf("more = %v over HTTP, %v in process", more, want.More)
			}
		})
	}
}

func TestServerV1SearchValidation(t *testing.T) {
	c := serveCollection(t)
	s := New(c, mineStore(t, c, stburst.KindRegional), "")
	bodies := []string{
		`not json`,
		`{}`,
		`{"text":"a","terms":["b"]}`,
		`{"text":"a","k":-1}`,
		`{"text":"a","offset":-1}`,
		`{"text":"a","kind":"nope"}`,
		`{"text":"a","kind":7}`,
		`{"text":"a","region":{"min_x":5,"max_x":1,"min_y":0,"max_y":1}}`,
		`{"text":"a","time":{"start":9,"end":2}}`,
		`{"text":"a","bogus_field":1}`,
	}
	for _, body := range bodies {
		if code, out := postJSON(t, s, "/v1/search", body); code != http.StatusBadRequest {
			t.Errorf("POST /v1/search %s = %d %v, want 400", body, code, out)
		} else if _, ok := out["error"]; !ok {
			t.Errorf("POST /v1/search %s: 400 body missing error field: %v", body, out)
		}
	}
	// GET on the v1 search route is not allowed.
	req := httptest.NewRequest(http.MethodGet, "/v1/search", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/search = %d, want 405", rec.Code)
	}
}

// TestServerV1PatternsFiltered: region/from/to prune the stored patterns
// and an all-excluding filter reads as 404.
func TestServerV1PatternsFiltered(t *testing.T) {
	c := serveCollection(t)
	s := New(c, mineStore(t, c, stburst.KindRegional), "")

	code, body := get(t, s, "/v1/patterns/earthquake")
	if code != http.StatusOK {
		t.Fatalf("unfiltered = %d, want 200", code)
	}
	total := len(body["patterns"].([]any))

	// The burst lives at weeks 5-7 around lima/quito; a matching filter
	// keeps every pattern.
	code, body = get(t, s, "/v1/patterns/earthquake?from=5&to=7")
	if code != http.StatusOK || len(body["patterns"].([]any)) != total {
		t.Errorf("matching time filter = %d with %v patterns, want all %d", code, body["patterns"], total)
	}
	// Before the burst: nothing.
	if code, body = get(t, s, "/v1/patterns/earthquake?from=0&to=2"); code != http.StatusNotFound {
		t.Errorf("pre-burst time filter = %d %v, want 404", code, body)
	}
	// A region far outside every stream: nothing.
	if code, body = get(t, s, "/v1/patterns/earthquake?region=1000,1000,1001,1001"); code != http.StatusNotFound {
		t.Errorf("far region filter = %d %v, want 404", code, body)
	}
	// A region over the burst pair keeps at least one pattern.
	code, body = get(t, s, "/v1/patterns/earthquake?region=-1,-1,4,3")
	if code != http.StatusOK || len(body["patterns"].([]any)) == 0 {
		t.Errorf("burst region filter = %d %v, want patterns", code, body)
	}
	// Malformed filters are 400s.
	for _, url := range []string{
		"/v1/patterns/earthquake?region=1,2,3",
		"/v1/patterns/earthquake?region=a,b,c,d",
		"/v1/patterns/earthquake?region=5,5,1,1",
		"/v1/patterns/earthquake?from=x",
		"/v1/patterns/earthquake?from=9&to=2",
		"/v1/patterns/earthquake?kind=nope",
	} {
		if code, body := get(t, s, url); code != http.StatusBadRequest {
			t.Errorf("GET %s = %d %v, want 400", url, code, body)
		}
	}
}

// TestWriteJSONEncodeFailure: an unencodable value yields a clean 500
// JSON error, not a half-written 200.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, map[string]any{"bad": make(chan int)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("500 body is not JSON: %q", rec.Body.String())
	}
	if _, ok := out["error"]; !ok {
		t.Fatalf("500 body missing error field: %v", out)
	}
}

// TestServerV1SearchResourceLimits: a single request cannot demand an
// unbounded page (stburst.MaxK caps K and Offset at validation time) or
// an unbounded body.
func TestServerV1SearchResourceLimits(t *testing.T) {
	c := serveCollection(t)
	s := New(c, mineStore(t, c, stburst.KindRegional), "")
	for _, body := range []string{
		`{"text":"earthquake","k":500000000}`,
		`{"text":"earthquake","k":5,"offset":4000000000}`,
	} {
		if code, out := postJSON(t, s, "/v1/search", body); code != http.StatusBadRequest {
			t.Errorf("POST /v1/search %s = %d %v, want 400", body, code, out)
		}
	}
	// Nor can it make the server buffer an unbounded body: the decoder
	// stops reading at MaxBody and the answer is 413.
	oversize := `{"text":"` + strings.Repeat("a", MaxBody) + `"}`
	if code, out := postJSON(t, s, "/v1/search", oversize); code != http.StatusRequestEntityTooLarge {
		t.Errorf("POST /v1/search with a %d-byte body = %d %v, want 413", len(oversize), code, out)
	}
}

// TestServerV1PatternsOpenEndedSpan: a one-sided from/to past the data
// is a valid empty range (404: nothing survives), not a 400 inversion —
// only an explicit from > to is rejected.
func TestServerV1PatternsOpenEndedSpan(t *testing.T) {
	c := serveCollection(t) // timeline 12
	s := New(c, mineStore(t, c, stburst.KindRegional), "")
	if code, body := get(t, s, "/v1/patterns/earthquake?from=100"); code != http.StatusNotFound {
		t.Errorf("?from=100 (past the timeline) = %d %v, want 404", code, body)
	}
	if code, body := get(t, s, "/v1/patterns/earthquake?to=-5"); code != http.StatusNotFound {
		t.Errorf("?to=-5 (before the timeline) = %d %v, want 404", code, body)
	}
	if code, body := get(t, s, "/v1/patterns/earthquake?from=100&to=2"); code != http.StatusBadRequest {
		t.Errorf("explicit from>to = %d %v, want 400", code, body)
	}
}

// multiKindServer boots a server over a store holding all three kinds.
func multiKindServer(t *testing.T, snapshotPath string) (*stburst.Collection, *stburst.Store, *Server) {
	t.Helper()
	c := serveCollection(t)
	store, err := c.MineStore(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return c, store, New(c, store, snapshotPath)
}

// TestServerV1Indexes: the resident kinds are listed with their sizes
// and fingerprints.
func TestServerV1Indexes(t *testing.T) {
	c, store, s := multiKindServer(t, "")
	_ = c
	code, body := get(t, s, "/v1/indexes")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/indexes = %d, want 200", code)
	}
	indexes, ok := body["indexes"].([]any)
	if !ok || len(indexes) != 3 {
		t.Fatalf("indexes = %v, want 3 entries", body["indexes"])
	}
	wantKinds := []string{"regional", "combinatorial", "temporal"}
	for i, raw := range indexes {
		entry := raw.(map[string]any)
		if entry["kind"] != wantKinds[i] {
			t.Errorf("index %d kind %v, want %s", i, entry["kind"], wantKinds[i])
		}
		ix := store.Index(stburst.Kinds()[i])
		if entry["fingerprint"] != ix.Fingerprint() {
			t.Errorf("index %d fingerprint %v, want %s", i, entry["fingerprint"], ix.Fingerprint())
		}
		if int(entry["patterns"].(float64)) != ix.NumPatterns() {
			t.Errorf("index %d patterns %v, want %d", i, entry["patterns"], ix.NumPatterns())
		}
	}
}

// TestServerMultiKindSearch: one process answers /v1/search for each
// concrete kind and for kind:"any", matching the in-process store.
func TestServerMultiKindSearch(t *testing.T) {
	_, store, s := multiKindServer(t, "")
	for _, kind := range []string{"regional", "combinatorial", "temporal", "any"} {
		t.Run(kind, func(t *testing.T) {
			k, err := stburst.ParseKind(kind)
			if err != nil {
				t.Fatal(err)
			}
			want, err := store.Query(context.Background(), stburst.Query{Text: "earthquake", Kind: k, K: 10})
			if err != nil {
				t.Fatal(err)
			}
			code, body := postJSON(t, s, "/v1/search", `{"text":"earthquake","kind":"`+kind+`","k":10}`)
			if code != http.StatusOK {
				t.Fatalf("POST /v1/search kind=%s = %d %v, want 200", kind, code, body)
			}
			hits, _ := body["hits"].([]any)
			if len(hits) != len(want.Hits) {
				t.Fatalf("kind %s: HTTP returned %d hits, in-process %d", kind, len(hits), len(want.Hits))
			}
			for i, raw := range hits {
				h := raw.(map[string]any)
				if int(h["doc"].(float64)) != want.Hits[i].Doc.ID ||
					h["kind"] != want.Hits[i].Kind.String() ||
					h["score"].(float64) != want.Hits[i].Score {
					t.Errorf("kind %s hit %d: HTTP %v, in-process %+v", kind, i, h, want.Hits[i])
				}
			}
		})
	}
	// kind:"any" over a multi-kind store must attribute hits to more than
	// one kind somewhere in a large page.
	code, body := postJSON(t, s, "/v1/search", `{"text":"earthquake","kind":"any","k":200}`)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/search any = %d, want 200", code)
	}
	seen := map[string]bool{}
	for _, raw := range body["hits"].([]any) {
		seen[raw.(map[string]any)["kind"].(string)] = true
	}
	if len(seen) < 2 {
		t.Errorf("kind any returned hits from kinds %v, want several", seen)
	}
}

// TestServerSearchKindNotResident: naming a kind the store does not hold
// is 404, not 400 or an empty 200.
func TestServerSearchKindNotResident(t *testing.T) {
	c := serveCollection(t)
	s := New(c, mineStore(t, c, stburst.KindRegional), "")
	code, body := postJSON(t, s, "/v1/search", `{"text":"earthquake","kind":"temporal"}`)
	if code != http.StatusNotFound {
		t.Errorf("POST /v1/search kind=temporal on regional-only store = %d %v, want 404", code, body)
	}
	if code, body := get(t, s, "/v1/patterns/earthquake?kind=temporal"); code != http.StatusNotFound {
		t.Errorf("GET /v1/patterns?kind=temporal on regional-only store = %d %v, want 404", code, body)
	}
}

// TestServerPatternsKindParam: ?kind= narrows the listing; the default
// on a multi-kind store is "any" with per-pattern attribution.
func TestServerPatternsKindParam(t *testing.T) {
	_, _, s := multiKindServer(t, "")
	code, body := get(t, s, "/v1/patterns/earthquake")
	if code != http.StatusOK || body["kind"] != "any" {
		t.Fatalf("default listing = %d kind=%v, want 200 any", code, body["kind"])
	}
	all := body["patterns"].([]any)
	kindsSeen := map[string]int{}
	for _, raw := range all {
		kindsSeen[raw.(map[string]any)["kind"].(string)]++
	}
	if len(kindsSeen) != 3 {
		t.Fatalf("default listing covers kinds %v, want all three", kindsSeen)
	}
	for _, kind := range []string{"regional", "combinatorial", "temporal"} {
		code, body := get(t, s, "/v1/patterns/earthquake?kind="+kind)
		if code != http.StatusOK || body["kind"] != kind {
			t.Fatalf("kind=%s listing = %d kind=%v, want 200 %s", kind, code, body["kind"], kind)
		}
		patterns := body["patterns"].([]any)
		if len(patterns) != kindsSeen[kind] {
			t.Errorf("kind=%s listing has %d patterns, the any listing had %d", kind, len(patterns), kindsSeen[kind])
		}
		for _, raw := range patterns {
			if got := raw.(map[string]any)["kind"]; got != kind {
				t.Errorf("kind=%s listing contains a %v pattern", kind, got)
			}
		}
	}
}

// TestServerReload: POST /v1/reload atomically swaps the resident set to
// the current file contents while a concurrent query hammer observes
// nothing but complete, consistent answers. Run under -race this also
// proves the swap path is data-race free.
func TestServerReload(t *testing.T) {
	c := serveCollection(t)
	path := filepath.Join(t.TempDir(), "corpus.bundle")

	full, err := c.MineStore(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := full.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Boot from a single-kind store, then reload into the full bundle.
	s := New(c, mineStore(t, c, stburst.KindRegional), path)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, body := postJSON(t, s, "/v1/search", `{"text":"earthquake","kind":"any","k":5}`)
				if code != http.StatusOK {
					t.Errorf("hammered search = %d %v", code, body)
					return
				}
				if code, _ := get(t, s, "/v1/indexes"); code != http.StatusOK {
					t.Errorf("hammered indexes = %d", code)
					return
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		code, body := postJSON(t, s, "/v1/reload", "")
		if code != http.StatusOK || body["reloaded"] != true {
			t.Fatalf("POST /v1/reload #%d = %d %v, want 200 reloaded", i, code, body)
		}
	}
	close(stop)
	wg.Wait()

	// After the reload the store serves all three kinds from the bundle.
	code, body := get(t, s, "/v1/indexes")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/indexes after reload = %d", code)
	}
	indexes := body["indexes"].([]any)
	if len(indexes) != 3 {
		t.Fatalf("after reload %d indexes resident, want 3: %v", len(indexes), body)
	}
	for i, kind := range stburst.Kinds() {
		entry := indexes[i].(map[string]any)
		if entry["fingerprint"] != full.Index(kind).Fingerprint() {
			t.Errorf("reloaded %v fingerprint %v, want %s", kind, entry["fingerprint"], full.Index(kind).Fingerprint())
		}
	}
}

// TestServerReloadRefusesForeignShard: a member booted on shard 0 of 2
// whose bundle file is overwritten with shard 1's refuses the reload
// with 409 naming both identities, and goes on serving and advertising
// shard 0 — a gateway routing by /v1/healthz never meets shard 1's
// terms under shard 0's name.
func TestServerReloadRefusesForeignShard(t *testing.T) {
	c := serveCollection(t)
	whole, err := c.MineStore(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := whole.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := index.ReadStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	names := map[int]string{}
	for _, snap := range b.Snaps {
		b.Sets = append(b.Sets, snap.Set)
		for i, id := range snap.Set.Terms() {
			names[id] = snap.Terms[i]
		}
	}
	term := func(id int) string { return names[id] }
	parts, err := index.SplitSets(b.Sets, term, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "member.bundle")
	writeShard := func(i int) {
		t.Helper()
		info := index.ShardInfo{Shard: i, Shards: 2, Scheme: index.ShardScheme, CorpusFingerprint: c.Checksum()}
		if err := (&index.Bundle{Sets: parts[i], Shard: info}).WriteFile(path, term); err != nil {
			t.Fatal(err)
		}
	}
	writeShard(0)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	store, err := stburst.LoadStore(f, c)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	s := New(c, store, path)
	_, before := get(t, s, "/v1/indexes")

	writeShard(1)
	code, body := postJSON(t, s, "/v1/reload", "")
	msg, _ := body["error"].(string)
	if code != http.StatusConflict || !strings.Contains(msg, "Shard:1 Shards:2") || !strings.Contains(msg, "Shard:0 Shards:2") {
		t.Fatalf("reload of a foreign shard = %d %v, want 409 naming both identities", code, body)
	}
	if _, health := get(t, s, "/v1/healthz"); health["shard"] != float64(0) || health["shards"] != float64(2) {
		t.Errorf("healthz after the refused reload = %v, want shard 0 of 2", health)
	}
	if _, after := get(t, s, "/v1/indexes"); !reflect.DeepEqual(after, before) {
		t.Errorf("resident set changed across a refused reload:\n before %v\n after  %v", before, after)
	}

	// Its own shard, re-mined, still reloads.
	writeShard(0)
	if code, body := postJSON(t, s, "/v1/reload", ""); code != http.StatusOK || body["reloaded"] != true {
		t.Errorf("reload of the member's own shard = %d %v, want 200 reloaded", code, body)
	}
}

// TestServerReloadRefusedAfterIngest: once a batch has been appended
// since boot, POST /v1/reload answers 409 naming both document counts
// and the resident set stays as the ingest left it — a bundle mined
// before the batch would install patterns that never see its documents.
func TestServerReloadRefusedAfterIngest(t *testing.T) {
	c := serveCollection(t)
	path := filepath.Join(t.TempDir(), "corpus.bundle")
	store, err := c.MineStore(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	s := New(c, store, path)
	ing := stburst.NewIngester(store)
	t.Cleanup(ing.Close)
	s.EnableIngest(ing)
	boot := c.NumDocs()

	if code, body := postJSON(t, s, "/v1/documents",
		`{"documents":[{"stream":"lima","time":7,"text":"earthquake damage survey"}]}`); code != http.StatusAccepted {
		t.Fatalf("ingest = %d %v", code, body)
	}
	_, before := get(t, s, "/v1/indexes")
	code, body := postJSON(t, s, "/v1/reload", "")
	msg, _ := body["error"].(string)
	if code != http.StatusConflict || !strings.Contains(msg, fmt.Sprintf("holds %d documents but held %d", boot+1, boot)) {
		t.Fatalf("reload after an ingest = %d %v, want 409 naming %d and %d documents", code, body, boot+1, boot)
	}
	if _, after := get(t, s, "/v1/indexes"); !reflect.DeepEqual(before, after) {
		t.Errorf("resident set changed across a refused reload:\n before %v\n after  %v", before, after)
	}
}

// TestServerReloadErrors: reload without a snapshot path is 409; a
// corrupt file is a 500 that leaves the old resident set serving.
func TestServerReloadErrors(t *testing.T) {
	c := serveCollection(t)
	s := New(c, mineStore(t, c, stburst.KindRegional), "")
	if code, body := postJSON(t, s, "/v1/reload", ""); code != http.StatusConflict {
		t.Errorf("reload without path = %d %v, want 409", code, body)
	}

	path := filepath.Join(t.TempDir(), "corrupt.bundle")
	if err := os.WriteFile(path, []byte("not a bundle at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s = New(c, mineStore(t, c, stburst.KindRegional), path)
	if code, body := postJSON(t, s, "/v1/reload", ""); code != http.StatusInternalServerError {
		t.Errorf("reload of corrupt file = %d %v, want 500", code, body)
	}
	// The old index still serves.
	if code, _ := postJSON(t, s, "/v1/search", `{"text":"earthquake","k":3}`); code != http.StatusOK {
		t.Errorf("search after failed reload = %d, want 200", code)
	}
	code, body := get(t, s, "/v1/indexes")
	if code != http.StatusOK || len(body["indexes"].([]any)) != 1 {
		t.Errorf("indexes after failed reload = %d %v, want the original single index", code, body)
	}
}

// ingestServer builds an ingest-enabled server over a full three-kind
// store, mirroring `stserve -ingest`.
func ingestServer(t *testing.T) (*stburst.Collection, *stburst.Store, *Server) {
	t.Helper()
	c := serveCollection(t)
	store, err := c.MineStore(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := New(c, store, "")
	ing := stburst.NewIngester(store)
	t.Cleanup(ing.Close)
	s.EnableIngest(ing)
	return c, store, s
}

// TestServerDocumentsDisabled: without -ingest the write surface is
// sealed with 403, and nothing about the store changes.
func TestServerDocumentsDisabled(t *testing.T) {
	c := serveCollection(t)
	s := New(c, mineStore(t, c, stburst.KindRegional), "")
	docs := c.NumDocs()
	code, body := postJSON(t, s, "/v1/documents",
		`{"documents":[{"stream":"lima","time":3,"text":"volcano erupts"}]}`)
	if code != http.StatusForbidden {
		t.Fatalf("POST /v1/documents without -ingest = %d %v, want 403", code, body)
	}
	if c.NumDocs() != docs {
		t.Error("rejected ingest still appended documents")
	}
}

// TestServerDocumentsIngest: an ingested batch answers 202 with the new
// generation and dirty-term count, and the refreshed indexes serve the
// new documents immediately.
func TestServerDocumentsIngest(t *testing.T) {
	c, store, s := ingestServer(t)
	gen0 := store.Generation()
	docs0 := c.NumDocs()

	code, body := postJSON(t, s, "/v1/documents",
		`{"documents":[
			{"stream":"tokyo","time":9,"text":"volcano eruption ash volcano"},
			{"stream":"lima","time":10,"text":"volcano ash cloud spreads"}
		]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/documents = %d %v, want 202", code, body)
	}
	if body["flushed"] != true || int(body["accepted"].(float64)) != 2 {
		t.Errorf("ingest response %v, want flushed=true accepted=2", body)
	}
	if int(body["dirty_terms"].(float64)) == 0 {
		t.Errorf("ingest response %v reports no dirty terms", body)
	}
	if gen := uint64(body["generation"].(float64)); gen <= gen0 {
		t.Errorf("ingest generation %d did not advance past %d", gen, gen0)
	}
	if c.NumDocs() != docs0+2 {
		t.Errorf("collection holds %d docs, want %d", c.NumDocs(), docs0+2)
	}

	// The new term is immediately searchable and its patterns listable.
	code, body = postJSON(t, s, "/v1/search", `{"text": "volcano", "k": 10}`)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/search after ingest = %d %v", code, body)
	}
	if int(body["count"].(float64)) == 0 {
		t.Error("ingested term retrieves nothing")
	}

	// /v1/generation and /v1/stats report the new state.
	code, body = get(t, s, "/v1/generation")
	if code != http.StatusOK || uint64(body["generation"].(float64)) != store.Generation() {
		t.Errorf("GET /v1/generation = %d %v, want store generation %d", code, body, store.Generation())
	}
	code, body = get(t, s, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d", code)
	}
	if body["ingest_enabled"] != true {
		t.Errorf("stats %v, want ingest_enabled=true", body)
	}
	if int(body["ingested_docs"].(float64)) != 2 {
		t.Errorf("stats ingested_docs %v, want 2", body["ingested_docs"])
	}
	if uint64(body["generation"].(float64)) != store.Generation() {
		t.Errorf("stats generation %v, want %d", body["generation"], store.Generation())
	}
}

// TestServerDocumentsCancelledRequest: a POST whose client gave up
// before the batch was admitted applies nothing and gets no answer, and
// it counts as neither a server error nor an ingest.
func TestServerDocumentsCancelledRequest(t *testing.T) {
	c, store, s := ingestServer(t)
	docs0, gen0 := c.NumDocs(), store.Generation()
	before := scrape(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/documents",
		strings.NewReader(`{"documents":[{"stream":"lima","time":3,"text":"volcano"}]}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code == http.StatusAccepted || c.NumDocs() != docs0 || store.Generation() != gen0 {
		t.Fatalf("cancelled POST = %d, collection %d → %d docs, generation %d → %d, want a refusal that applied nothing",
			rec.Code, docs0, c.NumDocs(), gen0, store.Generation())
	}
	// The client gave up, so the server did not fail: no 5xx is counted
	// against the route, and no document is counted as ingested.
	after := scrape(t, s)
	for _, key := range []string{series("POST /v1/documents", "5xx"), "stserve_ingested_docs_total"} {
		if after[key] != before[key] {
			t.Errorf("%s moved %v → %v across a cancelled POST", key, before[key], after[key])
		}
	}
	if _, body := get(t, s, "/v1/stats"); body["ingested_docs"] != float64(0) {
		t.Errorf("stats ingested_docs = %v after a cancelled POST, want 0", body["ingested_docs"])
	}
}

// TestServerDocumentsValidation: bad bodies, unknown streams and
// out-of-range times are 400s and nothing is applied.
func TestServerDocumentsValidation(t *testing.T) {
	c, _, s := ingestServer(t)
	docs0 := c.NumDocs()
	for name, body := range map[string]string{
		"not json":        `{"documents": nope}`,
		"unknown field":   `{"documents":[],"mode":"fast"}`,
		"empty batch":     `{"documents":[]}`,
		"no batch":        `{}`,
		"unknown stream":  `{"documents":[{"stream":"atlantis","time":3,"text":"x"}]}`,
		"negative time":   `{"documents":[{"stream":"lima","time":-1,"text":"x"}]}`,
		"time past end":   `{"documents":[{"stream":"lima","time":12,"text":"x"}]}`,
		"mixed good, bad": `{"documents":[{"stream":"lima","time":3,"text":"ok"},{"stream":"lima","time":99,"text":"x"}]}`,
	} {
		code, resp := postJSON(t, s, "/v1/documents", body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: POST /v1/documents = %d %v, want 400", name, code, resp)
		}
	}
	if c.NumDocs() != docs0 {
		t.Errorf("rejected batches left state behind: %d docs", c.NumDocs()-docs0)
	}
}

// FuzzDocumentsBody: on arbitrary POST /v1/documents bodies the handler
// never panics; every 202 grew the collection by exactly its accepted
// count and the generation by exactly one, and reports the store's
// generation; every other status left the documents and the generation
// untouched.
func FuzzDocumentsBody(f *testing.F) {
	c := serveCollection(f)
	store, err := c.MineStore(f.Context(), nil)
	if err != nil {
		f.Fatal(err)
	}
	srv := New(c, store, "")
	ing := stburst.NewIngester(store)
	f.Cleanup(ing.Close)
	srv.EnableIngest(ing)
	f.Add([]byte(`{"documents":[{"stream":"tokyo","time":9,"text":"volcano eruption ash volcano"},{"stream":"lima","time":10,"text":"volcano ash cloud spreads"}]}`))
	f.Add([]byte(`{"documents":[{"stream":"quito","time":8,"text":""}]}`))
	f.Add([]byte(`{"documents":[{"stream":"lima","time":3,"text":"ok"},{"stream":"lima","time":99,"text":"x"}]}`))
	f.Add([]byte(`{"documents":[{"stream":"atlantis","time":3,"text":"x"}]}`))
	f.Add([]byte(`{"documents":[],"mode":"fast"}`))
	f.Add([]byte(`{"documents": nope}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		docs0, gen0 := c.NumDocs(), store.Generation()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/documents", bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			if c.NumDocs() != docs0 || store.Generation() != gen0 {
				t.Fatalf("status %d moved the store: %d → %d docs, generation %d → %d",
					rec.Code, docs0, c.NumDocs(), gen0, store.Generation())
			}
			return
		}
		var ack struct {
			Accepted   int    `json:"accepted"`
			Generation uint64 `json:"generation"`
			Flushed    bool   `json:"flushed"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
			t.Fatalf("202 body %q does not decode: %v", rec.Body.String(), err)
		}
		if ack.Accepted < 1 || !ack.Flushed || c.NumDocs() != docs0+ack.Accepted {
			t.Fatalf("202 %s: collection %d → %d docs", rec.Body.String(), docs0, c.NumDocs())
		}
		if gen := store.Generation(); gen != gen0+1 || ack.Generation != gen {
			t.Fatalf("202 %s: generation %d → %d", rec.Body.String(), gen0, gen)
		}
	})
}

// TestServerIngestUnderQueryHammer: POSTs to /v1/documents proceed while
// searches hammer every kind — the HTTP-level ingest-vs-query drill; run
// it under -race for the full effect.
func TestServerIngestUnderQueryHammer(t *testing.T) {
	_, store, s := ingestServer(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if code, body := postJSON(t, s, "/v1/search", `{"text":"earthquake","k":10}`); code != http.StatusOK {
					t.Errorf("search during ingest = %d %v", code, body)
					return
				}
				if code, _ := get(t, s, "/v1/generation"); code != http.StatusOK {
					t.Error("generation poll failed")
					return
				}
			}
		}()
	}
	lastGen := store.Generation()
	for i := 0; i < 8; i++ {
		code, body := postJSON(t, s, "/v1/documents",
			`{"documents":[{"stream":"tokyo","time":11,"text":"earthquake wave alert"}]}`)
		if code != http.StatusAccepted {
			t.Fatalf("ingest %d = %d %v", i, code, body)
		}
		gen := uint64(body["generation"].(float64))
		if gen <= lastGen {
			t.Fatalf("ingest %d: generation %d did not advance past %d", i, gen, lastGen)
		}
		lastGen = gen
	}
	close(stop)
	wg.Wait()
}
