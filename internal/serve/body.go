package serve

import (
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"strconv"
	"sync"

	"stburst"
)

// The two hot /v1 read bodies, the pattern listing and the search page,
// are appended into a pooled buffer in one pass instead of going through
// WriteJSON: encoding/json reflects over every field and then re-scans its
// compact output a second time to indent it, and on a listing of a
// widespread term that indent pass alone was over half the handler's CPU.
// The appenders write exactly the bytes json.Encoder with
// SetIndent("", "  ") writes for the same value (FuzzReadBodies holds them
// to that against encoding/json over the former struct shapes): keys in
// the order encoding/json emits them, the same float and string forms,
// the same trailing newline.

// pooledBodyCap is the largest buffer a response returns to bodyPool. An
// unfiltered listing of a term bursting everywhere can run to megabytes;
// keeping such a buffer would pin that memory for the life of the pool
// to serve the rare next outlier, while typical listings and every search
// page fit well below it.
const pooledBodyCap = 1 << 20

var bodyPool = sync.Pool{New: func() any { return new(jsonBody) }}

// jsonBody is one response body being appended. err records the first
// value JSON cannot carry (a NaN or infinite float); the body is then
// never written, and finish answers the encoding-failure 500 instead.
type jsonBody struct {
	buf []byte
	err error
}

func newBody() *jsonBody { return bodyPool.Get().(*jsonBody) }

// finish answers 200 with the appended body, or the encoding-failure 500
// when a value could not be encoded (no header has been written before
// this point, so the failure is never a truncated 200), and returns the
// buffer to the pool.
func (j *jsonBody) finish(w http.ResponseWriter, what string) {
	if j.err != nil {
		log.Printf("encoding %s response: %v", what, j.err)
		writeEncodingFailure(w)
	} else {
		writeBody(w, http.StatusOK, j.buf)
	}
	if cap(j.buf) <= pooledBodyCap {
		j.buf, j.err = j.buf[:0], nil
		bodyPool.Put(j)
	}
}

func (j *jsonBody) raw(s string) { j.buf = append(j.buf, s...) }

func (j *jsonBody) int(v int) { j.buf = strconv.AppendInt(j.buf, int64(v), 10) }

func (j *jsonBody) str(s string) { j.buf = appendString(j.buf, s) }

// float appends f as encoding/json writes a float64: the shortest 'f'
// form, or the 'e' form for magnitudes below 1e-6 or from 1e21 up, with
// a two-digit negative exponent trimmed to one digit ("e-07" → "e-7").
// NaN and ±Inf have no JSON form and set err.
func (j *jsonBody) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if j.err == nil {
			j.err = fmt.Errorf("unsupported value: %v", f)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(j.buf, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	j.buf = b
}

// appendString appends s as a JSON string. Printable ASCII with nothing
// to escape is copied between quotes; anything else goes through
// json.Marshal, so HTML-sensitive bytes, control bytes, U+2028/U+2029
// and invalid UTF-8 come out exactly as encoding/json writes them.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return append(b, quote(s)...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// quote is s as encoding/json writes a string: a string always encodes.
func quote(s string) string {
	q, _ := json.Marshal(s)
	return string(q)
}

// quoteStreams quotes every stream name of the collection once; the
// streams are fixed by the corpus header, so appending a name to a body
// is then a copy.
func quoteStreams(c *stburst.Collection) []string {
	out := make([]string, c.NumStreams())
	for x := range out {
		out[x] = quote(c.Stream(x).Name)
	}
	return out
}

// appendPatterns appends the GET /v1/patterns/{term} body listing the
// patterns of every group in turn (one group per resident kind, so the
// groups are never copied into one slice): the keys "kind", "patterns",
// "term" in encoding/json's sorted-map order, each pattern's fields in
// declaration order, and an empty rect, streams or intervals left out.
// streams holds the quoted stream names.
func (j *jsonBody) appendPatterns(streams []string, term, kind string, groups [][]stburst.Pattern) {
	j.raw("{\n  \"kind\": ")
	j.str(kind)
	j.raw(",\n  \"patterns\": [")
	first := true
	for _, patterns := range groups {
		for i := range patterns {
			j.appendPattern(streams, &patterns[i], first)
			first = false
		}
	}
	if !first {
		j.raw("\n  ")
	}
	j.raw("],\n  \"term\": ")
	j.str(term)
	j.raw("\n}\n")
}

// appendPattern appends one element of the listing's patterns array.
func (j *jsonBody) appendPattern(streams []string, p *stburst.Pattern, first bool) {
	if !first {
		j.raw(",")
	}
	j.raw("\n    {\n      \"kind\": ")
	j.str(p.Kind.String())
	j.raw(",\n      \"start\": ")
	j.int(p.Start)
	j.raw(",\n      \"end\": ")
	j.int(p.End)
	j.raw(",\n      \"score\": ")
	j.float(p.Score)
	if r := p.Rect; r != nil {
		j.raw(",\n      \"rect\": {\n        \"min_x\": ")
		j.float(r.MinX)
		j.raw(",\n        \"min_y\": ")
		j.float(r.MinY)
		j.raw(",\n        \"max_x\": ")
		j.float(r.MaxX)
		j.raw(",\n        \"max_y\": ")
		j.float(r.MaxY)
		j.raw("\n      }")
	}
	if len(p.Streams) > 0 {
		j.raw(",\n      \"streams\": [")
		for k, x := range p.Streams {
			if k > 0 {
				j.raw(",")
			}
			j.raw("\n        ")
			j.raw(streams[x])
		}
		j.raw("\n      ]")
	}
	if len(p.Intervals) > 0 {
		j.raw(",\n      \"intervals\": [")
		for k, iv := range p.Intervals {
			if k > 0 {
				j.raw(",")
			}
			j.raw("\n        {\n          \"stream\": ")
			j.raw(streams[iv.Stream])
			j.raw(",\n          \"start\": ")
			j.int(iv.Start)
			j.raw(",\n          \"end\": ")
			j.int(iv.End)
			j.raw(",\n          \"weight\": ")
			j.float(iv.Weight)
			j.raw("\n        }")
		}
		j.raw("\n      ]")
	}
	j.raw("\n    }")
}

// appendSearch appends the POST /v1/search body, which a cluster gateway
// relays verbatim from the member that answered: "count" (the size of
// this page; with offset paging the full result-set size is unknown, the
// TA never enumerates it), "hits", "more" (whether later pages exist),
// the echoed "query" and "took_ms". The query is nested through
// json.MarshalIndent, so stburst.Query's tags and Kind.MarshalJSON keep
// defining its shape.
func (j *jsonBody) appendSearch(q stburst.Query, page stburst.ResultPage, tookMS float64) {
	j.raw("{\n  \"count\": ")
	j.int(len(page.Hits))
	j.raw(",\n  \"hits\": [")
	for i := range page.Hits {
		h := &page.Hits[i]
		if i > 0 {
			j.raw(",")
		}
		j.raw("\n    {\n      \"doc\": ")
		j.int(h.Doc.ID)
		j.raw(",\n      \"kind\": ")
		j.str(h.Kind.String())
		j.raw(",\n      \"stream\": ")
		j.str(h.Stream)
		j.raw(",\n      \"time\": ")
		j.int(h.Doc.Time)
		j.raw(",\n      \"score\": ")
		j.float(h.Score)
		j.raw("\n    }")
	}
	if len(page.Hits) > 0 {
		j.raw("\n  ")
	}
	if page.More {
		j.raw("],\n  \"more\": true,\n  \"query\": ")
	} else {
		j.raw("],\n  \"more\": false,\n  \"query\": ")
	}
	qj, err := json.MarshalIndent(q, "  ", "  ")
	if err != nil && j.err == nil {
		j.err = err
	}
	j.buf = append(j.buf, qj...)
	j.raw(",\n  \"took_ms\": ")
	j.float(tookMS)
	j.raw("\n}\n")
}
