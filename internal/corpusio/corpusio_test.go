package corpusio

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(Header{Kind: "topix", Streams: []string{"Peru", "Chile"}, Timeline: 4}); err != nil {
		t.Fatal(err)
	}
	docs := []DocLine{
		{Stream: "Peru", Time: 1, Counts: map[string]int{"fujimori": 2, "trial": 1}, Event: 17},
		{Stream: "Chile", Time: 3, Counts: map[string]int{"fujimori": 1}, Event: 0},
	}
	for _, d := range docs {
		if err := enc.Encode(d); err != nil {
			t.Fatal(err)
		}
	}
	col, labels, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if col.NumStreams() != 2 || col.Length() != 4 || col.NumDocs() != 2 {
		t.Fatalf("dims %d/%d/%d", col.NumStreams(), col.Length(), col.NumDocs())
	}
	if labels[0] != 17 || labels[1] != 0 {
		t.Fatalf("labels %v", labels)
	}
	id, ok := col.Dict().Lookup("fujimori")
	if !ok {
		t.Fatal("term missing")
	}
	s := col.Surface(id)
	if s[0][1] != 2 || s[1][3] != 1 {
		t.Fatalf("surface wrong: %v", s)
	}
	// Stream locations must be projected (non-identical points).
	if col.Stream(0).Location == col.Stream(1).Location {
		t.Fatal("MDS projection collapsed the streams")
	}
}

func TestAppendDocs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.jsonl")
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(Header{Kind: "topix", Streams: []string{"Peru", "Chile"}, Timeline: 4}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(DocLine{Stream: "Peru", Time: 0, Counts: map[string]int{"a": 1}}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	n, err := AppendDocs(path, func(existing int) []DocLine {
		if existing != 1 {
			t.Fatalf("existing = %d, want 1", existing)
		}
		return []DocLine{{Stream: "Chile", Time: 2, Counts: map[string]int{"b": 2, "a": 1}}}
	})
	if err != nil || n != 1 {
		t.Fatalf("AppendDocs = %d, %v", n, err)
	}

	// Idempotent retry: pick sees the grown count and appends nothing;
	// the file must be byte-identical afterwards.
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err = AppendDocs(path, func(existing int) []DocLine {
		if existing != 2 {
			t.Fatalf("retry existing = %d, want 2", existing)
		}
		return nil
	})
	if err != nil || n != 0 {
		t.Fatalf("no-op AppendDocs = %d, %v", n, err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("no-op append modified the file")
	}

	col, _, err := Load(bytes.NewReader(after))
	if err != nil {
		t.Fatalf("Load after append: %v", err)
	}
	if col.NumDocs() != 2 {
		t.Fatalf("NumDocs = %d, want 2", col.NumDocs())
	}
	id, ok := col.Dict().Lookup("b")
	if !ok {
		t.Fatal("appended term missing from the dictionary")
	}
	if s := col.Surface(id); s[1][2] != 2 {
		t.Fatalf("appended surface wrong: %v", s)
	}

	// A non-topix file refuses before any write.
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte(`{"kind":"other"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := AppendDocs(bad, func(int) []DocLine { return nil }); err == nil {
		t.Fatal("append to a non-topix corpus should error")
	}
	if _, err := AppendDocs(filepath.Join(dir, "missing.jsonl"), func(int) []DocLine { return nil }); err == nil {
		t.Fatal("append to a missing corpus should error")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, _, err := Load(strings.NewReader("")); err == nil {
		t.Fatal("empty input should error")
	}
	if _, _, err := Load(strings.NewReader(`{"kind":"other"}`)); err == nil {
		t.Fatal("unknown kind should error")
	}
	if _, _, err := Load(strings.NewReader(`{"kind":"topix","streams":["Atlantis"],"timeline":4}`)); err == nil {
		t.Fatal("unknown country should error")
	}
	bad := `{"kind":"topix","streams":["Peru"],"timeline":4}` + "\n" + `{"stream":"Nowhere","time":0}`
	if _, _, err := Load(strings.NewReader(bad)); err == nil {
		t.Fatal("unknown document stream should error")
	}
	bad = `{"kind":"topix","streams":["Peru"],"timeline":4}` + "\n" + `{"stream":"Peru","time":9}`
	if _, _, err := Load(strings.NewReader(bad)); err == nil {
		t.Fatal("out-of-range time should error")
	}
	// A count past int32 would wrap into a negative frequency; zero and
	// negative counts are no occurrence at all.
	for _, n := range []string{"3000000000", "0", "-5"} {
		bad = `{"kind":"topix","streams":["Peru"],"timeline":4}` + "\n" + `{"stream":"Peru","time":1,"counts":{"x":` + n + `}}`
		if _, _, err := Load(strings.NewReader(bad)); err == nil {
			t.Fatalf("term count %s should error", n)
		}
	}
}
