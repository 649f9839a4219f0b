package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"stburst"
)

// request is one HTTP request of an op list.
type request struct {
	Method string
	Target string
	Body   []byte
}

func (rq request) build() *http.Request {
	var body io.Reader
	if rq.Body != nil {
		body = bytes.NewReader(rq.Body)
	}
	return httptest.NewRequest(rq.Method, rq.Target, body)
}

// recorder is the in-memory http.ResponseWriter the ops write to.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

// SetWriteDeadline lets the ingest handler lift its write deadline the
// way it does on a real connection, rather than log a failure per ack.
func (r *recorder) SetWriteDeadline(time.Time) error { return nil }

// call sends the request through the handler's ServeHTTP and times
// exactly that call. The request is built before the clock starts.
func call(h http.Handler, rq request) (status int, body []byte, start, end time.Time) {
	req := rq.build()
	rec := &recorder{header: make(http.Header)}
	start = time.Now()
	h.ServeHTTP(rec, req)
	end = time.Now()
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	return rec.status, rec.body.Bytes(), start, end
}

// hashBody digests a response body without its took_ms line, the only
// part of a search response that differs between two runs of one query.
func hashBody(body []byte) uint64 {
	h := fnv.New64a()
	if i := bytes.Index(body, []byte(`"took_ms"`)); i >= 0 {
		h.Write(body[:i])
		if j := bytes.IndexByte(body[i:], '\n'); j >= 0 {
			body = body[i+j:]
		} else {
			body = nil
		}
	}
	h.Write(body)
	return h.Sum64()
}

// searchResponse is the part of a /v1/search response the checks read.
type searchResponse struct {
	Count int  `json:"count"`
	More  bool `json:"more"`
	Hits  []struct {
		Doc    int     `json:"doc"`
		Kind   string  `json:"kind"`
		Stream string  `json:"stream"`
		Time   int     `json:"time"`
		Score  float64 `json:"score"`
	} `json:"hits"`
}

// checkSearch compares a /v1/search response body with the page a
// direct Store.Query returns for the same query on the oracle store:
// the same hits in the same order with bit-equal scores, and the same
// More flag.
func checkSearch(body []byte, oracle *stburst.Store, q stburst.Query) error {
	var got searchResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding search response: %w", err)
	}
	want, err := oracle.Query(context.Background(), q)
	if err != nil {
		return fmt.Errorf("oracle query: %w", err)
	}
	if len(got.Hits) != len(want.Hits) || got.More != want.More || got.Count != len(want.Hits) {
		return fmt.Errorf("got %d hits (more=%v), oracle has %d (more=%v)", len(got.Hits), got.More, len(want.Hits), want.More)
	}
	for i, h := range got.Hits {
		w := want.Hits[i]
		if h.Doc != w.Doc.ID || h.Kind != w.Kind.String() || h.Stream != w.Stream || h.Time != w.Doc.Time || h.Score != w.Score {
			return fmt.Errorf("hit %d is %+v, oracle has doc %d kind %v score %v", i, h, w.Doc.ID, w.Kind, w.Score)
		}
	}
	return nil
}

// searchRequest is POST /v1/search with the query as its JSON body.
func searchRequest(q stburst.Query) request {
	body, err := json.Marshal(q)
	if err != nil {
		panic(err) // a Query of plain fields always marshals
	}
	return request{Method: http.MethodPost, Target: "/v1/search", Body: body}
}
