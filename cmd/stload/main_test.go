package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"stburst"
	"stburst/internal/corpusio"
	"stburst/internal/gen"
	"stburst/internal/serve"
	"stburst/internal/sub"
)

// bootTarget generates a small topix corpus (the full 181-country
// stream set, so stload's synthesized ingest streams resolve), round
// trips it through the JSONL interchange format exactly like
// stgen | stserve would, mines a regional index, and boots the real
// serve handler on an httptest listener with ingestion armed. The
// result is a live stserve in-process — the CI smoke needs no separate
// binary or port management.
var bootOnce struct {
	sync.Mutex
	corpus []byte
}

func corpusJSONL(t *testing.T) []byte {
	t.Helper()
	bootOnce.Lock()
	defer bootOnce.Unlock()
	if bootOnce.corpus != nil {
		return bootOnce.corpus
	}
	tp, err := gen.NewTopix(gen.TopixConfig{
		Seed:             1,
		WeeklyArticles:   0.4,
		Vocab:            300,
		TokensPerArticle: 8,
		RetainCounts:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	col := tp.Col
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	h := struct {
		Kind     string   `json:"kind"`
		Streams  []string `json:"streams"`
		Timeline int      `json:"timeline"`
	}{Kind: "topix", Timeline: col.Length()}
	for i := 0; i < col.NumStreams(); i++ {
		h.Streams = append(h.Streams, col.Stream(i).Name)
	}
	if err := enc.Encode(h); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < col.NumDocs(); id++ {
		d := col.Doc(id)
		counts := make(map[string]int, len(d.Counts))
		for term, n := range d.Counts {
			counts[col.Dict().Term(term)] = n
		}
		line := struct {
			Stream string         `json:"stream"`
			Time   int            `json:"time"`
			Counts map[string]int `json:"counts"`
			Event  int            `json:"event"`
		}{Stream: col.Stream(d.Stream).Name, Time: d.Time, Counts: counts, Event: tp.Labels[id]}
		if err := enc.Encode(line); err != nil {
			t.Fatal(err)
		}
	}
	bootOnce.corpus = buf.Bytes()
	return bootOnce.corpus
}

// TestWorkloadPointsMatchLoad: the locations stload aims regional
// hotspot queries at are exactly the ones corpusio.Load gives an stgen
// corpus's streams, so a query box drawn around an epicenter covers the
// stream the server placed there.
func TestWorkloadPointsMatchLoad(t *testing.T) {
	col, _, err := corpusio.Load(bytes.NewReader(corpusJSONL(t)))
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWorkload(config{})
	if err != nil {
		t.Fatal(err)
	}
	if col.NumStreams() != len(w.pts) {
		t.Fatalf("corpus has %d streams, workload %d points", col.NumStreams(), len(w.pts))
	}
	for i := 0; i < col.NumStreams(); i++ {
		st := col.Stream(i)
		if got := w.pts[gen.CountryIndex(st.Name)]; got != st.Location {
			t.Fatalf("stream %s: workload point %v, loaded location %v", st.Name, got, st.Location)
		}
	}
}

func bootTarget(t *testing.T) *httptest.Server {
	t.Helper()
	c, err := stburst.LoadCorpus(bytes.NewReader(corpusJSONL(t)))
	if err != nil {
		t.Fatal(err)
	}
	store, err := c.MineStore(context.Background(), nil, stburst.KindRegional)
	if err != nil {
		t.Fatal(err)
	}
	handler := serve.New(c, store, "")
	ing := stburst.NewIngester(store)
	handler.EnableIngest(ing)
	handler.EnableSubscriptions(sub.DispatcherOptions{})
	t.Cleanup(func() {
		ing.Close()
		handler.CloseSubscriptions()
	})
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	return ts
}

func runLoad(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"no target", []string{"-requests", "10"}},
		{"negative requests", []string{"-target", "http://x", "-requests", "-1"}},
		{"requests and duration", []string{"-target", "http://x", "-requests", "10", "-duration", "5s"}},
		{"zero duration", []string{"-target", "http://x", "-duration", "0s"}},
		{"negative rate", []string{"-target", "http://x", "-rate", "-5"}},
		{"bad write fraction", []string{"-target", "http://x", "-write-fraction", "1.5"}},
		{"bad subscribe fraction", []string{"-target", "http://x", "-subscribe-fraction", "1.5"}},
		{"fractions exceed 1", []string{"-target", "http://x", "-write-fraction", "0.6", "-subscribe-fraction", "0.6"}},
		{"zero concurrency", []string{"-target", "http://x", "-concurrency", "0"}},
		{"tiny vocab", []string{"-target", "http://x", "-vocab", "1"}},
		{"unknown flag", []string{"-target", "http://x", "-frobnicate"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runLoad(t, tc.args...)
			if code != 2 {
				t.Errorf("run(%v) = %d, want exit 2", tc.args, code)
			}
			if stdout != "" {
				t.Errorf("flag error wrote to stdout: %q", stdout)
			}
			if !strings.Contains(stderr, "Usage of stload") && !strings.Contains(stderr, "flag") {
				t.Errorf("flag error did not print usage: %q", stderr)
			}
		})
	}
}

// TestReportDeterminism: two fixed-count runs with the same seed emit
// byte-identical reports once the timing section and the ephemeral
// target URL are zeroed; a different seed changes the trace fingerprint.
func TestReportDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism pass boots and mines two corpora; skipped under -short")
	}
	canon := func(raw string) (string, report) {
		var rep report
		if err := json.Unmarshal([]byte(raw), &rep); err != nil {
			t.Fatalf("report does not parse: %v\n%s", err, raw)
		}
		got := rep
		got.Config.Target = ""
		got.Timing = reportTiming{}
		b, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		return string(b), rep
	}

	// Read-only (write-fraction 0): the request set AND the responses
	// are reproducible against identical fresh servers.
	var canons []string
	var reps []report
	for i := 0; i < 2; i++ {
		ts := bootTarget(t)
		code, stdout, stderr := runLoad(t,
			"-target", ts.URL, "-requests", "150", "-seed", "1", "-concurrency", "4", "-vocab", "300")
		if code != 0 {
			t.Fatalf("run %d exit %d: %s", i, code, stderr)
		}
		c, rep := canon(stdout)
		canons = append(canons, c)
		reps = append(reps, rep)
	}
	if canons[0] != canons[1] {
		t.Errorf("same-seed reports differ modulo timing:\n%s\n%s", canons[0], canons[1])
	}
	if reps[0].Workload.TraceFingerprint != reps[1].Workload.TraceFingerprint {
		t.Errorf("same-seed fingerprints differ: %s vs %s",
			reps[0].Workload.TraceFingerprint, reps[1].Workload.TraceFingerprint)
	}
	if reps[0].Outcome.TransportErrors != 0 {
		t.Errorf("transport errors on loopback: %d", reps[0].Outcome.TransportErrors)
	}

	ts := bootTarget(t)
	code, stdout, stderr := runLoad(t,
		"-target", ts.URL, "-requests", "150", "-seed", "2", "-concurrency", "4", "-vocab", "300")
	if code != 0 {
		t.Fatalf("seed-2 run exit %d: %s", code, stderr)
	}
	_, rep2 := canon(stdout)
	if rep2.Workload.TraceFingerprint == reps[0].Workload.TraceFingerprint {
		t.Error("different seeds produced the same trace fingerprint")
	}
}

// TestReportRoundTrip: the emitted JSON survives a decode through the
// report schema struct and re-encodes to the same document — no field
// the tool writes is missing from the schema it publishes.
func TestReportRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("round trip boots and mines a corpus; skipped under -short")
	}
	ts := bootTarget(t)
	code, stdout, stderr := runLoad(t,
		"-target", ts.URL, "-requests", "60", "-seed", "3", "-concurrency", "2", "-vocab", "300")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var rep report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("report does not parse into the schema: %v", err)
	}
	reenc, err := marshalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	if string(reenc) != stdout {
		t.Errorf("schema round trip lost information:\n--- emitted ---\n%s--- round-tripped ---\n%s", stdout, reenc)
	}
}

// TestSmokeMixedLoad is the CI smoke and the acceptance check in one:
// a short deterministic mixed read/write pass against the in-process
// server must finish with zero transport errors, non-zero throughput,
// real latency numbers on the search route, and — closing the loop with
// the tentpole's other half — the server's /metrics request counters
// must equal the report's per-route sent totals.
func TestSmokeMixedLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("mixed-load smoke re-mines dirty terms on every ingest; skipped under -short")
	}
	ts := bootTarget(t)
	code, stdout, stderr := runLoad(t,
		"-target", ts.URL, "-requests", "300", "-seed", "1", "-concurrency", "8",
		"-write-fraction", "0.15", "-subscribe-fraction", "0.1", "-vocab", "300")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var rep report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Outcome.TransportErrors != 0 {
		t.Errorf("transport errors: %d", rep.Outcome.TransportErrors)
	}
	if rep.Workload.Ops != 300 {
		t.Errorf("ops = %d, want 300", rep.Workload.Ops)
	}
	if rep.Timing.QPS <= 0 {
		t.Errorf("qps = %v, want > 0", rep.Timing.QPS)
	}
	if rep.Workload.DocsSent == 0 {
		t.Error("mixed load sent no documents")
	}
	if rep.Topology.Docs == 0 || rep.Topology.Streams == 0 {
		t.Errorf("topology header missing corpus facts: %+v", rep.Topology)
	}
	if rep.Topology.Shards != 1 || rep.Topology.Members != nil {
		t.Errorf("single stserve should report a 1-shard topology: %+v", rep.Topology)
	}
	search, ok := rep.Timing.Routes[routeSearch]
	if !ok {
		t.Fatalf("no latency section for %s", routeSearch)
	}
	if !(search.P50Ms > 0 && search.P50Ms <= search.P99Ms && search.P99Ms <= search.MaxMs) {
		t.Errorf("implausible search latencies: %+v", search)
	}
	subs := rep.Outcome.Subscriptions
	if subs == nil {
		t.Fatal("subscribe-fraction run produced no subscriptions outcome section")
	}
	if subs.Creates == 0 || subs.Created == 0 {
		t.Errorf("expected successful subscription registrations, got %+v", subs)
	}
	if subs.Created+subs.Rejected > subs.Creates {
		t.Errorf("inconsistent create accounting: %+v", subs)
	}

	// Cross-check against the server's own accounting. The topology
	// probe stload runs before the load is one extra stats request the
	// server counted but the report's workload (rightly) does not.
	metrics := scrapeMetrics(t, ts.URL)
	scraped := requestCounts(t, metrics)
	scraped[routeStats]--
	for route, sent := range rep.Workload.OpsByRoute {
		if got := scraped[route]; got != sent {
			t.Errorf("server /metrics counts %d requests on %q, report sent %d", got, route, sent)
		}
	}
	if !strings.Contains(metrics, "stserve_ingested_docs_total "+strconv.Itoa(rep.Workload.DocsSent)) {
		t.Errorf("server ingested-docs gauge disagrees with %d docs sent:\n%s",
			rep.Workload.DocsSent, grepLine(metrics, "stserve_ingested_docs_total"))
	}
}

// scrapeMetrics returns the server's GET /metrics exposition.
func scrapeMetrics(t *testing.T, target string) string {
	t.Helper()
	resp, err := http.Get(target + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// requestCounts sums the stserve_http_requests_total series of a
// /metrics exposition by route across status classes.
func requestCounts(t *testing.T, metrics string) map[string]int {
	t.Helper()
	out := make(map[string]int)
	for _, line := range strings.Split(metrics, "\n") {
		if !strings.HasPrefix(line, `stserve_http_requests_total{route="`) {
			continue
		}
		rest := strings.TrimPrefix(line, `stserve_http_requests_total{route="`)
		q := strings.Index(rest, `"`)
		sp := strings.LastIndexByte(rest, ' ')
		if q < 0 || sp < 0 {
			t.Fatalf("unparseable series line %q", line)
		}
		n, err := strconv.Atoi(rest[sp+1:])
		if err != nil {
			t.Fatalf("unparseable count in %q: %v", line, err)
		}
		out[rest[:q]] += n
	}
	return out
}

func grepLine(text, needle string) string {
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, needle) {
			return line
		}
	}
	return "(absent)"
}
