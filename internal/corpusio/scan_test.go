package corpusio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"stburst/internal/gen"
	"stburst/internal/geo"
	"stburst/internal/stream"
)

// loadJSON is Load as it was before the hand-written scanner: every
// document line through json.Unmarshal into DocLine, its terms interned
// in sorted order by Dictionary.ID. It is the oracle the new Load must
// reproduce byte for byte.
func loadJSON(r io.Reader) (*stream.Collection, []int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, nil, fmt.Errorf("empty corpus")
	}
	var h Header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, nil, err
	}
	infos := make([]stream.Info, len(h.Streams))
	coords := make([]geo.LatLon, len(h.Streams))
	for i, name := range h.Streams {
		ci := gen.CountryIndex(name)
		if ci < 0 {
			return nil, nil, fmt.Errorf("unknown country %q", name)
		}
		coords[i] = gen.Countries[ci].Geo
		infos[i] = stream.Info{Name: name, Geo: coords[i]}
	}
	pts, err := geo.MDS(geo.DistanceMatrix(coords, geo.Haversine), rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, nil, err
	}
	for i := range infos {
		infos[i].Location = pts[i]
	}
	col := stream.NewCollection(infos, h.Timeline)
	col.SetRetainCounts(false)
	var labels []int
	for sc.Scan() {
		var d DocLine
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			return nil, nil, err
		}
		x, err := col.Resolve(d.Stream, d.Time)
		if err != nil {
			return nil, nil, err
		}
		terms := make([]string, 0, len(d.Counts))
		for t := range d.Counts {
			terms = append(terms, t)
		}
		sort.Strings(terms)
		ids := make(map[int]int, len(terms))
		for _, t := range terms {
			ids[col.Dict().ID(t)] = d.Counts[t]
		}
		if _, err := col.AddCounts(x, d.Time, ids); err != nil {
			return nil, nil, err
		}
		labels = append(labels, d.Event)
	}
	return col, labels, sc.Err()
}

// rung is one corpus size of the ladder ROADMAP.md measures on.
type rung struct {
	name      string
	weekly    float64
	vocab     int
	tokens    float64
	skipShort bool
}

var ladder = []rung{
	{name: "xs", weekly: 0.2, vocab: 150, tokens: 8},
	{name: "mid", weekly: 0.7, vocab: 700, tokens: 12},
	{name: "l", weekly: 2, vocab: 1500, tokens: 15, skipShort: true},
}

// topixJSONL generates a rung's Topix corpus (seed 1) in the JSONL form
// stgen prints.
func topixJSONL(tb testing.TB, r rung) []byte {
	tb.Helper()
	tp, err := gen.NewTopix(gen.TopixConfig{Seed: 1, WeeklyArticles: r.weekly, Vocab: r.vocab, TokensPerArticle: r.tokens, RetainCounts: true})
	if err != nil {
		tb.Fatal(err)
	}
	col := tp.Col
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	h := Header{Kind: "topix", Timeline: col.Length()}
	for i := 0; i < col.NumStreams(); i++ {
		h.Streams = append(h.Streams, col.Stream(i).Name)
	}
	if err := enc.Encode(h); err != nil {
		tb.Fatal(err)
	}
	for id := 0; id < col.NumDocs(); id++ {
		d := col.Doc(id)
		counts := make(map[string]int, len(d.Counts))
		for term, n := range d.Counts {
			counts[col.Dict().Term(term)] = n
		}
		if err := enc.Encode(DocLine{Stream: col.Stream(d.Stream).Name, Time: d.Time, Counts: counts, Event: tp.Labels[id]}); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestLoadMatchesJSONLoaderOnLadder: on the generated corpora of the
// ladder's rungs, Load gives the encoding/json loader's collection —
// equal checksum, labels and dictionary order.
func TestLoadMatchesJSONLoaderOnLadder(t *testing.T) {
	for _, r := range ladder {
		t.Run(r.name, func(t *testing.T) {
			if r.skipShort && testing.Short() {
				t.Skip("the l rung takes seconds")
			}
			raw := topixJSONL(t, r)
			got, gotLabels, err := Load(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			want, wantLabels, err := loadJSON(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if got.Checksum() != want.Checksum() {
				t.Errorf("checksum %s, the encoding/json loader's %s", got.Checksum(), want.Checksum())
			}
			if !slices.Equal(gotLabels, wantLabels) {
				t.Errorf("labels differ from the encoding/json loader's")
			}
			if got.Dict().Len() != want.Dict().Len() {
				t.Fatalf("%d terms, the encoding/json loader has %d", got.Dict().Len(), want.Dict().Len())
			}
			for id := 0; id < want.Dict().Len(); id++ {
				if got.Dict().Term(id) != want.Dict().Term(id) {
					t.Fatalf("term %d is %q, the encoding/json loader's %q", id, got.Dict().Term(id), want.Dict().Term(id))
				}
			}
			t.Logf("%d docs, %d terms, %d bytes", got.NumDocs(), got.Dict().Len(), len(raw))
		})
	}
}

// TestLoadSortsAndRejectsRepeatedTerms: a line whose counts are out of
// order loads as its sorted form does, and a term repeated in one line —
// which encoding/json would have let the last count win — is an error,
// as is a field key repeated.
func TestLoadSortsAndRejectsRepeatedTerms(t *testing.T) {
	head := `{"kind":"topix","streams":["Peru"],"timeline":4}` + "\n"
	load := func(lines ...string) (*stream.Collection, error) {
		col, _, err := Load(strings.NewReader(head + strings.Join(lines, "\n")))
		return col, err
	}
	sorted, err := load(`{"stream":"Peru","time":1,"counts":{"a":1,"b":2,"c":3}}`)
	if err != nil {
		t.Fatal(err)
	}
	shuffled, err := load(`{"counts":{"c":3,"a":1,"b":2},"time":1,"stream":"Peru"}`)
	if err != nil {
		t.Fatal(err)
	}
	if sorted.Checksum() != shuffled.Checksum() {
		t.Error("out-of-order counts load differently from sorted ones")
	}
	for _, line := range []string{
		`{"stream":"Peru","time":1,"counts":{"a":1,"a":2}}`,
		`{"stream":"Peru","time":1,"counts":{"b":1,"a":1,"b":2}}`,
		`{"stream":"Peru","time":1,"counts":{"a":1,"\u0061":2}}`,
		`{"stream":"Peru","time":1,"time":2}`,
		`{"stream":"Peru","Stream":"Peru"}`,
	} {
		if _, err := load(line); err == nil {
			t.Errorf("%s: loaded", line)
		}
	}
}

// BenchmarkLoad loads the generated xs corpus (bench/'s size).
func BenchmarkLoad(b *testing.B) {
	raw := topixJSONL(b, ladder[0])
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := Load(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// sameCounts reports whether a scanned line's pairs are the map's.
func sameCounts(counts []stream.TermCount, want map[string]int) bool {
	if len(counts) != len(want) {
		return false
	}
	for _, tc := range counts {
		if n, ok := want[string(tc.Term)]; !ok || n != tc.Count {
			return false
		}
	}
	return true
}

// FuzzCorpusLine holds the line scanner to encoding/json. Whenever it
// accepts a line, json.Unmarshal accepts the line into DocLine with the
// same fields and counts. And every json.Marshal of a DocLine built from
// the fuzzed fields — reshaped by the layout bits: keys reordered or
// case-changed, whitespace added, an unknown key of any value spliced
// in, counts written out of order — is accepted and decodes as
// encoding/json decodes it.
func FuzzCorpusLine(f *testing.F) {
	for _, line := range []string{
		`{"stream":"Peru","time":1,"counts":{"fujimori":2,"trial":1},"event":17}`,
		`{"event":0,"counts":null,"time":3,"stream":"Chile"}`,
		` { "stream" : "Perú" , "TIME" : -0 , "counts" : { "b\"c" : 1 , "😀" : 2 } } `,
		`{"stream":"Peru","x":[1,{"y":null},"z",-1.5e+3,true,false],"counts":{}}`,
		`{"stream":"Peru","time":1e2}`,
		`{"stream":"Peru","counts":{"a":1,"a":2}}`,
		`{"stream":"Peru","ſtream":"Chile"}`,
		"{\"stream\":\"Pe\xffru\",\"counts\":{\"\xc3\":1}}",
		`{"stream":"Peru","time":9223372036854775808}`,
		`{"stream":"Peru"} x`,
		`null`,
	} {
		f.Add([]byte(line), "Peru", 3, 17, "quake,rescue", uint8(0))
	}
	f.Add([]byte(nil), "Côte d'Ivoire", -1, 1<<40, "a,<b>,\"c\",\\d,é,\x00,\xff,", uint8(0xff))
	f.Fuzz(func(t *testing.T, line []byte, name string, tm, event int, terms string, layout uint8) {
		check := func(line []byte) bool {
			d, err := scanDoc(line, nil)
			if err != nil {
				return false
			}
			var want DocLine
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatalf("%q: scanned %+v, encoding/json refuses: %v", line, d, err)
			}
			if string(d.stream) != want.Stream || d.time != want.Time || d.event != want.Event {
				t.Fatalf("%q: scanned %q %d %d, encoding/json has %+v", line, d.stream, d.time, d.event, want)
			}
			// A term named twice is the loader's error (AddTermCounts),
			// where encoding/json lets the last count win.
			distinct := map[string]bool{}
			for _, tc := range d.counts {
				distinct[string(tc.Term)] = true
			}
			if len(distinct) == len(d.counts) && !sameCounts(d.counts, want.Counts) {
				t.Fatalf("%q: scanned counts %v, encoding/json has %v", line, d.counts, want.Counts)
			}
			return true
		}
		check(line)

		counts := map[string]int{}
		for i, term := range strings.Split(terms, ",") {
			counts[term] = tm ^ (i * event)
		}
		if layout&1 != 0 {
			counts = nil // "counts":null
		}
		if !check(marshalLayout(t, DocLine{Stream: name, Time: tm, Counts: counts, Event: event}, layout)) {
			t.Fatalf("the scanner refuses a marshaled DocLine (layout %#x)", layout)
		}
	})
}

// marshalLayout writes d as json.Marshal does, reshaped by layout's
// bits: 1 counts are null (the caller's), 2 keys in reverse order, 4
// keys capitalized, 8 whitespace around every token, 16 an unknown key
// first, 32 counts in reverse term order, 64/128 the unknown key's value
// (array, object, string or number).
func marshalLayout(t *testing.T, d DocLine, layout uint8) []byte {
	enc := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ws := ""
	if layout&8 != 0 {
		ws = " \t"
	}
	var counts []byte
	if d.Counts == nil {
		counts = []byte("null")
	} else {
		keys := make([]string, 0, len(d.Counts))
		for k := range d.Counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if layout&32 != 0 {
			slices.Reverse(keys)
		}
		counts = append(counts, '{')
		for i, k := range keys {
			if i > 0 {
				counts = append(counts, ws+","+ws...)
			}
			counts = fmt.Appendf(counts, "%s%s:%s%d", enc(k), ws, ws, d.Counts[k])
		}
		counts = append(counts, '}')
	}
	members := [][2]string{
		{"stream", string(enc(d.Stream))},
		{"time", string(enc(d.Time))},
		{"counts", string(counts)},
		{"event", string(enc(d.Event))},
	}
	if layout&2 != 0 {
		slices.Reverse(members)
	}
	if layout&4 != 0 {
		for i := range members {
			members[i][0] = strings.ToUpper(members[i][0][:1]) + members[i][0][1:]
		}
	}
	if layout&16 != 0 {
		unknown := []string{`[1,"two",[null,true],{"x":false}]`, `{"stream":{"time":[]}}`, `"counts"`, `-0.5E-7`}[layout>>6]
		members = append([][2]string{{"extra", unknown}}, members...)
	}
	out := []byte(ws + "{")
	for i, m := range members {
		if i > 0 {
			out = append(out, ws+","...)
		}
		out = fmt.Appendf(out, "%s%s%s:%s%s", ws, enc(m[0]), ws, ws, m[1])
	}
	return append(out, ws+"}"+ws...)
}
