package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"stburst"
	"stburst/internal/interval"
)

// The reference shapes: the structs the pattern listing and the search
// page were encoded from through encoding/json before their bodies were
// appended. The appenders must write exactly what json.Encoder with
// SetIndent("", "  ") writes for these.

type rectJSON struct {
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
}

type intervalJSON struct {
	Stream string  `json:"stream"`
	Start  int     `json:"start"`
	End    int     `json:"end"`
	Weight float64 `json:"weight"`
}

type patternJSON struct {
	Kind      string         `json:"kind"`
	Start     int            `json:"start"`
	End       int            `json:"end"`
	Score     float64        `json:"score"`
	Rect      *rectJSON      `json:"rect,omitempty"`
	Streams   []string       `json:"streams,omitempty"`
	Intervals []intervalJSON `json:"intervals,omitempty"`
}

// SearchHit is one hit of a search response.
type SearchHit struct {
	Doc    int     `json:"doc"`
	Kind   string  `json:"kind"`
	Stream string  `json:"stream"`
	Time   int     `json:"time"`
	Score  float64 `json:"score"`
}

// SearchResponse is the POST /v1/search body.
type SearchResponse struct {
	Count  int           `json:"count"`
	Hits   []SearchHit   `json:"hits"`
	More   bool          `json:"more"`
	Query  stburst.Query `json:"query"`
	TookMS float64       `json:"took_ms"`
}

// encodeReference is the body WriteJSON writes for v.
func encodeReference(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// referencePatterns encodes a listing through the reference shapes;
// names are the raw stream names.
func referencePatterns(names []string, term, kind string, patterns []stburst.Pattern) ([]byte, error) {
	out := make([]patternJSON, 0, len(patterns))
	for _, p := range patterns {
		pj := patternJSON{Kind: p.Kind.String(), Start: p.Start, End: p.End, Score: p.Score}
		for _, x := range p.Streams {
			pj.Streams = append(pj.Streams, names[x])
		}
		if p.Rect != nil {
			pj.Rect = &rectJSON{MinX: p.Rect.MinX, MinY: p.Rect.MinY, MaxX: p.Rect.MaxX, MaxY: p.Rect.MaxY}
		}
		for _, iv := range p.Intervals {
			pj.Intervals = append(pj.Intervals, intervalJSON{Stream: names[iv.Stream], Start: iv.Start, End: iv.End, Weight: iv.Weight})
		}
		out = append(out, pj)
	}
	return encodeReference(map[string]any{"term": term, "kind": kind, "patterns": out})
}

// referenceSearch encodes a search page through the reference shapes.
func referenceSearch(q stburst.Query, page stburst.ResultPage, tookMS float64) ([]byte, error) {
	hits := make([]SearchHit, len(page.Hits))
	for i, h := range page.Hits {
		hits[i] = SearchHit{Doc: h.Doc.ID, Kind: h.Kind.String(), Stream: h.Stream, Time: h.Doc.Time, Score: h.Score}
	}
	return encodeReference(SearchResponse{Count: len(hits), Hits: hits, More: page.More, Query: q, TookMS: tookMS})
}

// appended runs an appender on a fresh body.
func appended(fill func(j *jsonBody)) ([]byte, error) {
	var j jsonBody
	fill(&j)
	return j.buf, j.err
}

// sameBody fails unless the appender and the reference agree: the same
// bytes, or both refusing the value.
func sameBody(t *testing.T, what string, got []byte, gotErr error, want []byte, wantErr error) {
	t.Helper()
	switch {
	case wantErr != nil && gotErr == nil:
		t.Fatalf("%s: encoding/json refused (%v) but the appender wrote\n%s", what, wantErr, got)
	case wantErr == nil && gotErr != nil:
		t.Fatalf("%s: the appender refused (%v) but encoding/json wrote\n%s", what, gotErr, want)
	case wantErr == nil && !bytes.Equal(got, want):
		t.Fatalf("%s: appended body differs from encoding/json\ngot:\n%s\nwant:\n%s", what, got, want)
	}
}

// readInput draws structured values from fuzz bytes; an exhausted input
// reads as zeros.
type readInput []byte

func (in *readInput) next() int {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int(b)
}

func (in *readInput) bits() uint64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u = u<<8 | uint64(in.next())
	}
	return u
}

// readFloats straddle every boundary of encoding/json's float format:
// both zeros, the smallest subnormal, both sides of 1e-6 and 1e21, the
// exponents it trims, negatives, and the values JSON cannot carry.
var readFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, -1.5e-9, 1e-10,
	1e21, math.Nextafter(1e21, 0), -1e21, 1e22, 1.7976931348623157e308, 1e-300,
	1, -1, 0.5, 0.1 + 0.2, -3.25, 123456789.125, 2.5e20, 1e20,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

func (in *readInput) float() float64 {
	if v := in.next(); v < 0xe0 {
		return readFloats[v%len(readFloats)]
	}
	return math.Float64frombits(in.bits())
}

func (in *readInput) int() int {
	switch v := in.next(); {
	case v < 0xc0:
		return v % 40
	case v < 0xe0:
		return -(v % 40)
	default:
		return int(int64(in.bits()))
	}
}

// readPieces are what a term or a stream name can hold that a plain
// copy would get wrong: HTML-sensitive bytes, quotes and backslashes,
// control bytes, DEL, U+2028/U+2029, invalid UTF-8 and multibyte runes.
var readPieces = []string{
	"lima", "earthquake", "<", ">", "&", `"`, `\`, "\x00", "\x1f", "\n\t", "\x7f",
	"\u2028", "\u2029", "\xff", "\xc3", "\xe2\x80", "é", "東京", " ", "",
}

func (in *readInput) str() string {
	var b strings.Builder
	for n := in.next() % 4; n > 0; n-- {
		if v := in.next(); v < 0xf0 {
			b.WriteString(readPieces[v%len(readPieces)])
		} else {
			b.WriteByte(byte(in.next()))
		}
	}
	return b.String()
}

func (in *readInput) kind() stburst.Kind { return stburst.Kinds()[in.next()%3] }

func (in *readInput) rect() *stburst.Rect {
	return &stburst.Rect{MinX: in.float(), MinY: in.float(), MaxX: in.float(), MaxY: in.float()}
}

// pattern draws one pattern of any kind over numStreams streams: a nil
// or present rect, and streams and intervals nil, empty or populated.
func (in *readInput) pattern(numStreams int) stburst.Pattern {
	p := stburst.Pattern{Kind: in.kind(), Start: in.int(), End: in.int(), Score: in.float()}
	if in.next()%2 == 0 {
		p.Rect = in.rect()
	}
	switch n := in.next() % 5; n {
	case 0:
	case 1:
		p.Streams = []int{}
	default:
		for ; n > 1; n-- {
			p.Streams = append(p.Streams, in.next()%numStreams)
		}
	}
	switch n := in.next() % 5; n {
	case 0:
	case 1:
		p.Intervals = []interval.Interval{}
	default:
		for ; n > 1; n-- {
			p.Intervals = append(p.Intervals, interval.Interval{Stream: in.next() % numStreams, Start: in.int(), End: in.int(), Weight: in.float()})
		}
	}
	return p
}

// query draws a query with every optional field independently set.
func (in *readInput) query() stburst.Query {
	var q stburst.Query
	set := in.next()
	if set&1 != 0 {
		q.Text = in.str()
	}
	if set&2 != 0 {
		q.Terms = make([]string, in.next()%3)
		for i := range q.Terms {
			q.Terms[i] = in.str()
		}
	}
	if set&4 != 0 {
		q.Kind = stburst.Kind(in.next() % 4)
	}
	if set&8 != 0 {
		q.Region = in.rect()
	}
	if set&16 != 0 {
		q.Time = &stburst.Timespan{Start: in.int(), End: in.int()}
	}
	if set&32 != 0 {
		q.K = in.int()
	}
	if set&64 != 0 {
		q.Offset = in.int()
	}
	if set&128 != 0 {
		q.MinScore = in.float()
	}
	return q
}

// page draws a search page of 0, 1 or 100 hits, or a few.
func (in *readInput) page() stburst.ResultPage {
	n := [...]int{0, 1, 100, 3}[in.next()%4]
	page := stburst.ResultPage{More: in.next()%2 == 1}
	for i := 0; i < n; i++ {
		page.Hits = append(page.Hits, stburst.Hit{
			Doc:   stburst.Document{ID: in.int(), Time: in.int()},
			Score: in.float(), Stream: in.str(), Kind: in.kind(),
		})
	}
	return page
}

// FuzzReadBodies: on random listings and search pages — every pattern
// kind with and without rect, streams and intervals; floats across every
// boundary of encoding/json's format; terms and stream names holding
// HTML-sensitive bytes, control bytes, U+2028/U+2029 and invalid UTF-8;
// pages of 0, 1 and 100 hits with every optional query field — the
// appenders write exactly the bytes encoding/json writes for the
// reference shapes, and refuse exactly the values it refuses.
func FuzzReadBodies(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 1, 0, 3, 1, 2, 4, 3, 4, 0, 5, 3, 1, 0, 1, 2, 3, 0, 1, 6, 7, 8, 9, 2, 1, 0xff, 0, 4, 5, 6, 7, 8, 1, 2, 3})
	f.Add([]byte{3, 3, 8, 9, 10, 11, 12, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26})
	f.Add([]byte{1, 1, 24, 0, 0, 1, 25, 26, 2, 2, 1, 0xff, 0x80, 0x80, 0, 1, 0xe1, 0x7f, 0xf0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(bytes.Repeat([]byte{2, 4, 7, 3, 1, 0xf5, 0x81}, 60))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := readInput(data)
		names := make([]string, 1+in.next()%4)
		quoted := make([]string, len(names))
		for i := range names {
			names[i] = in.str()
			quoted[i] = quote(names[i])
		}
		term, kind := in.str(), in.kind().String()
		if in.next()%4 == 0 {
			kind = stburst.KindAny.String()
		}
		// The handler lists one group per resident kind; any group may
		// be empty or absent.
		var groups [][]stburst.Pattern
		var patterns []stburst.Pattern
		for n := in.next() % 4; n > 0; n-- {
			group := make([]stburst.Pattern, in.next()%4)
			for i := range group {
				group[i] = in.pattern(len(names))
			}
			groups = append(groups, group)
			patterns = append(patterns, group...)
		}
		got, gotErr := appended(func(j *jsonBody) { j.appendPatterns(quoted, term, kind, groups) })
		want, wantErr := referencePatterns(names, term, kind, patterns)
		sameBody(t, "patterns", got, gotErr, want, wantErr)

		q, page, took := in.query(), in.page(), in.float()
		got, gotErr = appended(func(j *jsonBody) { j.appendSearch(q, page, took) })
		want, wantErr = referenceSearch(q, page, took)
		sameBody(t, "search", got, gotErr, want, wantErr)
	})
}

// TestAppendedNonFiniteAnswers500: a value JSON cannot carry reaching an
// appender answers the encoding-failure 500 with today's body and no
// partial 200, and the pooled buffer it used serves the next response
// cleanly.
func TestAppendedNonFiniteAnswers500(t *testing.T) {
	c := serveCollection(t)
	s := New(c, mineStore(t, c, stburst.KindRegional), "")
	const failure = `{"error":"internal: response encoding failed"}` + "\n"
	good := stburst.Pattern{Kind: stburst.KindRegional, Start: 5, End: 7, Score: 1, Rect: &stburst.Rect{MaxX: 3, MaxY: 2}, Streams: []int{0, 1}}
	check := func(name string, write func(w http.ResponseWriter), wantCode int) {
		t.Helper()
		rec := httptest.NewRecorder()
		write(rec)
		if rec.Code != wantCode || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s: %d %q, want %d application/json", name, rec.Code, rec.Header().Get("Content-Type"), wantCode)
		}
		if wantCode == http.StatusInternalServerError && rec.Body.String() != failure {
			t.Errorf("%s: body %q, want %q", name, rec.Body.String(), failure)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		score, rect, weight := good, good, good
		score.Score = bad
		rect.Rect = &stburst.Rect{MinX: bad, MaxX: 3, MaxY: 2}
		weight.Intervals = []interval.Interval{{Stream: 1, Start: 5, End: 7, Weight: bad}}
		for name, p := range map[string]stburst.Pattern{"score": score, "rect": rect, "weight": weight} {
			check("pattern "+name+" "+strconv.FormatFloat(bad, 'g', -1, 64), func(w http.ResponseWriter) {
				s.writePatterns(w, "earthquake", stburst.KindRegional, [][]stburst.Pattern{{good}, {p}})
			}, http.StatusInternalServerError)
			check("listing after a failure", func(w http.ResponseWriter) {
				s.writePatterns(w, "earthquake", stburst.KindRegional, [][]stburst.Pattern{{good}})
			}, http.StatusOK)
		}
		page := stburst.ResultPage{Hits: []stburst.Hit{{Score: 1, Kind: stburst.KindRegional}, {Score: bad, Kind: stburst.KindRegional}}}
		check("hit score", func(w http.ResponseWriter) {
			writeSearch(w, stburst.Query{Text: "earthquake"}, page, time.Now())
		}, http.StatusInternalServerError)
	}
}

// escapedTermServer serves a three-kind store whose corpus bursts on
// terms and stream names that JSON must escape.
func escapedTermServer(t *testing.T, terms []string) (*stburst.Collection, *stburst.Store, *Server) {
	t.Helper()
	streams := []stburst.StreamInfo{
		{Name: "lima", Location: stburst.Point{X: 0, Y: 0}},
		{Name: `São <Paulo> & "Rio"`, Location: stburst.Point{X: 3, Y: 2}},
		{Name: "tok\u2028yo\xff", Location: stburst.Point{X: 95, Y: 80}},
	}
	c := stburst.NewCollection(streams, 12)
	add := func(s, w int, tokens ...string) {
		t.Helper()
		if _, err := c.AddTokens(s, w, tokens); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 12; w++ {
		add(0, w, "markets", "steady", "calm")
		add(1, w, "football", "results", "weather")
		add(2, w, "technology", "exports", "report")
	}
	for w := 5; w <= 7; w++ {
		for i := 0; i < 4; i++ {
			add(0, w, append([]string{"earthquake"}, terms...)...)
			add(1, w, append([]string{"earthquake"}, terms...)...)
		}
	}
	store := mineStore(t, c)
	return c, store, New(c, store, "")
}

// TestPatternsEscapedTerms: a listing of a term that needs escaping, on a
// store where the term and its streams' names exist, is byte for byte
// the encoding/json reference; so is a search page over them.
func TestPatternsEscapedTerms(t *testing.T) {
	terms := []string{"a<b&c", "\u2028", "\xff"}
	c, store, s := escapedTermServer(t, terms)
	names := make([]string, c.NumStreams())
	for x := range names {
		names[x] = c.Stream(x).Name
	}
	for i, path := range []string{"/v1/patterns/a%3Cb%26c", "/v1/patterns/%E2%80%A8", "/v1/patterns/%FF"} {
		var patterns []stburst.Pattern
		for _, ix := range store.Resident() {
			patterns = append(patterns, ix.Patterns(terms[i], nil, nil)...)
		}
		if len(patterns) == 0 {
			t.Fatalf("%q has no patterns to list", terms[i])
		}
		want, err := referencePatterns(names, terms[i], stburst.KindAny.String(), patterns)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("GET %s = %d\n%s\nwant 200\n%s", path, rec.Code, rec.Body.Bytes(), want)
		}
	}

	q := stburst.Query{Text: "earthquake", K: 5, Region: &stburst.Rect{MinX: -1, MinY: -1, MaxX: 4, MaxY: 3}}
	page, err := store.Query(context.Background(), q)
	if err != nil || len(page.Hits) == 0 {
		t.Fatalf("oracle query = %d hits, %v", len(page.Hits), err)
	}
	body, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)))
	var took struct {
		TookMS float64 `json:"took_ms"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &took); err != nil {
		t.Fatalf("search body: %v\n%s", err, rec.Body.Bytes())
	}
	want, err := referenceSearch(q, page, took.TookMS)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("POST /v1/search = %d\n%s\nwant 200\n%s", rec.Code, rec.Body.Bytes(), want)
	}
}
