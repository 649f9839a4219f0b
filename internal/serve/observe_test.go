package serve

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"stburst"
)

// scrape fetches GET /metrics from the handler and parses the exposition
// text into series -> value ("name{labels}" exactly as rendered).
func scrape(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics Content-Type = %q, want text/plain", ct)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

func series(route, code string) string {
	return `stserve_http_requests_total{route="` + route + `",code="` + code + `"}`
}

// TestMetricsMonotonicity drives a known query + ingest + patterns
// sequence and asserts every counter moves by exactly the number of
// requests issued, the latency histogram counts every request, and the
// store-state gauges track the ingest.
func TestMetricsMonotonicity(t *testing.T) {
	_, store, s := ingestServer(t)

	before := scrape(t, s)
	if before[series("POST /v1/search", "2xx")] != 0 {
		t.Fatalf("fresh server already counts searches: %v", before)
	}
	gen0 := before["stserve_store_generation"]
	docs0 := before["stserve_collection_docs"]
	if docs0 == 0 {
		t.Fatal("stserve_collection_docs gauge is zero on a loaded corpus")
	}

	const searches = 5
	for i := 0; i < searches; i++ {
		if code, _ := postJSON(t, s, "/v1/search", `{"text":"earthquake","k":3}`); code != http.StatusOK {
			t.Fatalf("search %d failed", i)
		}
	}
	// One 400, one 404 on the same route family.
	postJSON(t, s, "/v1/search", `not json`)
	get(t, s, "/v1/patterns/nosuchterm")
	// One ingest of two documents.
	if code, _ := postJSON(t, s, "/v1/documents",
		`{"documents":[
			{"stream":"tokyo","time":9,"text":"cyclone landfall cyclone"},
			{"stream":"lima","time":9,"text":"cyclone rain flooding"}
		]}`); code != http.StatusAccepted {
		t.Fatal("ingest failed")
	}

	after := scrape(t, s)
	wantDelta := map[string]float64{
		series("POST /v1/search", "2xx"):         searches,
		series("POST /v1/search", "4xx"):         1,
		series("GET /v1/patterns/{term}", "4xx"): 1,
		series("POST /v1/documents", "2xx"):      1,
	}
	for key, want := range wantDelta {
		if got := after[key] - before[key]; got != want {
			t.Errorf("%s advanced by %v, want %v", key, got, want)
		}
	}
	if got := after[`stserve_http_request_seconds_count{route="POST /v1/search"}`]; got != searches+1 {
		t.Errorf("search latency histogram counts %v requests, want %d", got, searches+1)
	}
	if after["stserve_store_generation"] <= gen0 {
		t.Errorf("generation gauge %v did not advance past %v after ingest", after["stserve_store_generation"], gen0)
	}
	if got := after["stserve_collection_docs"] - docs0; got != 2 {
		t.Errorf("collection docs gauge advanced by %v, want 2", got)
	}
	if got := after["stserve_ingested_docs_total"]; got != 2 {
		t.Errorf("ingested docs total %v, want 2", got)
	}
	if store.Generation() != uint64(after["stserve_store_generation"]) {
		t.Errorf("generation gauge %v disagrees with store %d", after["stserve_store_generation"], store.Generation())
	}
	// At rest the only in-flight request is the scrape reading the gauge.
	if after["stserve_http_in_flight"] != 1 {
		t.Errorf("in-flight gauge %v during a scrape, want 1 (the scrape itself)", after["stserve_http_in_flight"])
	}

	// A second pass can only grow the counters: monotonicity.
	for key := range wantDelta {
		if after[key] < before[key] {
			t.Errorf("%s went backwards: %v -> %v", key, before[key], after[key])
		}
	}
}

// TestMetricsUnmatchedRoute: garbage paths share one "unmatched" series
// instead of minting a label per attacker-chosen URL.
func TestMetricsUnmatchedRoute(t *testing.T) {
	c := serveCollection(t)
	s := New(c, storeOf(t, c, mustMine(c, stburst.KindRegional, nil)), "")
	for _, path := range []string{"/nosuchroute", "/admin.php", "/x/y/z"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, rec.Code)
		}
	}
	m := scrape(t, s)
	if got := m[series("unmatched", "4xx")]; got != 3 {
		t.Errorf("unmatched 4xx counter = %v, want 3", got)
	}
}

// TestPprofNotOnServingListener: the serving mux must never expose
// /debug/pprof/ — profiling is an operator opt-in on -debug-addr.
func TestPprofNotOnServingListener(t *testing.T) {
	c := serveCollection(t)
	s := New(c, storeOf(t, c, mustMine(c, stburst.KindRegional, nil)), "")
	for _, path := range []string{
		"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/profile",
		"/debug/pprof/cmdline", "/debug/pprof/symbol", "/debug/pprof/trace",
	} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotFound {
			t.Errorf("GET %s on the serving listener = %d, want 404", path, rec.Code)
		}
	}
}

// TestPprofOnDebugHandler: the -debug-addr handler serves the pprof
// index and per-profile pages, plus a second /metrics exposition.
func TestPprofOnDebugHandler(t *testing.T) {
	c := serveCollection(t)
	s := New(c, storeOf(t, c, mustMine(c, stburst.KindRegional, nil)), "")
	dbg := s.DebugHandler()

	req := httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil)
	rec := httptest.NewRecorder()
	dbg.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("GET /debug/pprof/ on debug handler = %d, want a profile index", rec.Code)
	}
	req = httptest.NewRequest(http.MethodGet, "/debug/pprof/heap?debug=1", nil)
	rec = httptest.NewRecorder()
	dbg.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("GET /debug/pprof/heap on debug handler = %d, want 200", rec.Code)
	}

	// The debug /metrics reads the same registry as the serving one.
	if code, _ := get(t, s, "/v1/healthz"); code != http.StatusOK {
		t.Fatal("healthz failed")
	}
	m := scrape(t, dbg)
	if m[series("GET /v1/healthz", "2xx")] != 1 {
		t.Errorf("debug /metrics does not see serving traffic: %v", m[series("GET /v1/healthz", "2xx")])
	}
}

// TestMetricsUnderHammer scrapes /metrics while searches, ingests and
// reload-free traffic hammer the server, then checks the final counters
// equal exactly the requests issued — no lost or double-counted updates
// (run under -race for the full effect).
func TestMetricsUnderHammer(t *testing.T) {
	_, _, s := ingestServer(t)
	const workers, perWorker = 4, 25
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if code, _ := postJSON(t, s, "/v1/search", `{"text":"earthquake","k":3}`); code != http.StatusOK {
					t.Error("hammered search failed")
					return
				}
				if code, _ := postJSON(t, s, "/v1/documents",
					`{"documents":[{"stream":"quito","time":4,"text":"landslide road blocked"}]}`); code != http.StatusAccepted {
					t.Error("hammered ingest failed")
					return
				}
				scrape(t, s) // concurrent exposition must never tear
			}
		}()
	}
	wg.Wait()
	m := scrape(t, s)
	if got := m[series("POST /v1/search", "2xx")]; got != workers*perWorker {
		t.Errorf("search counter = %v, want %d", got, workers*perWorker)
	}
	if got := m[series("POST /v1/documents", "2xx")]; got != workers*perWorker {
		t.Errorf("ingest counter = %v, want %d", got, workers*perWorker)
	}
	if got := m[`stserve_http_request_seconds_count{route="POST /v1/search"}`]; got != workers*perWorker {
		t.Errorf("search histogram count = %v, want %d", got, workers*perWorker)
	}
	if got := m["stserve_ingested_docs_total"]; got != workers*perWorker {
		t.Errorf("ingested docs = %v, want %d", got, workers*perWorker)
	}
}
