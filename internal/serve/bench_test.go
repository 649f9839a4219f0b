package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"stburst"
	"stburst/internal/corpusio"
	"stburst/internal/gen"
)

// benchServer boots a three-kind store over a generated Topix corpus
// once per test binary, loaded through LoadCorpus as stserve loads one,
// and lists the terms with patterns of every resident kind.
var benchServer = sync.OnceValues(func() (*Server, []string) {
	tp, err := gen.NewTopix(gen.TopixConfig{Seed: 1, WeeklyArticles: 0.4, Vocab: 300, TokensPerArticle: 8, RetainCounts: true})
	if err != nil {
		panic(err)
	}
	col := tp.Col
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	h := corpusio.Header{Kind: "topix", Timeline: col.Length()}
	for x := 0; x < col.NumStreams(); x++ {
		h.Streams = append(h.Streams, col.Stream(x).Name)
	}
	if err := enc.Encode(h); err != nil {
		panic(err)
	}
	for id := 0; id < col.NumDocs(); id++ {
		d := col.Doc(id)
		counts := make(map[string]int, len(d.Counts))
		for term, n := range d.Counts {
			counts[col.Dict().Term(term)] = n
		}
		if err := enc.Encode(corpusio.DocLine{Stream: col.Stream(d.Stream).Name, Time: d.Time, Counts: counts}); err != nil {
			panic(err)
		}
	}
	c, err := stburst.LoadCorpus(&buf)
	if err != nil {
		panic(err)
	}
	store, err := c.MineStore(context.Background(), nil)
	if err != nil {
		panic(err)
	}
	var terms []string
	for _, term := range c.Terms() {
		all := true
		for _, ix := range store.Resident() {
			all = all && len(ix.Patterns(term, nil, nil)) > 0
		}
		if all {
			terms = append(terms, term)
		}
	}
	return New(c, store, ""), terms
})

// discardWriter is a ResponseWriter that keeps only the body size, so a
// handler benchmark measures the handler and not a recorder.
type discardWriter struct {
	h     http.Header
	code  int
	bytes int
}

func (d *discardWriter) Header() http.Header { return d.h }

func (d *discardWriter) WriteHeader(code int) { d.code = code }

func (d *discardWriter) Write(p []byte) (int, error) {
	d.bytes += len(p)
	return len(p), nil
}

// benchHandler cycles requests through the server, each body read anew,
// and reports the mean response size.
func benchHandler(b *testing.B, s *Server, reqs []*http.Request, bodies [][]byte) {
	w := &discardWriter{h: http.Header{}}
	total := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(reqs)
		if bodies != nil {
			reqs[k].Body = io.NopCloser(bytes.NewReader(bodies[k]))
		}
		w.code, w.bytes = 0, 0
		s.ServeHTTP(w, reqs[k])
		if w.code != http.StatusOK {
			b.Fatalf("%s %s = %d", reqs[k].Method, reqs[k].URL, w.code)
		}
		total += w.bytes
	}
	b.ReportMetric(float64(total)/float64(b.N), "resp_B/op")
}

// BenchmarkPatternsHandler: unfiltered GET /v1/patterns/{term} listings
// of every resident kind, over the terms bursting in all three.
func BenchmarkPatternsHandler(b *testing.B) {
	s, terms := benchServer()
	var reqs []*http.Request
	for _, term := range terms {
		reqs = append(reqs, httptest.NewRequest(http.MethodGet, "/v1/patterns/"+url.PathEscape(term), nil))
	}
	benchHandler(b, s, reqs, nil)
}

// BenchmarkSearchHandler: POST /v1/search top-10 pages of each kind in
// turn, over the same terms.
func BenchmarkSearchHandler(b *testing.B) {
	s, terms := benchServer()
	var reqs []*http.Request
	var bodies [][]byte
	for i, term := range terms {
		body, err := json.Marshal(stburst.Query{Text: term, Kind: stburst.Kinds()[i%3], K: 10})
		if err != nil {
			b.Fatal(err)
		}
		reqs = append(reqs, httptest.NewRequest(http.MethodPost, "/v1/search", nil))
		bodies = append(bodies, body)
	}
	benchHandler(b, s, reqs, bodies)
}
