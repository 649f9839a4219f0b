package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact")
	put := func(body string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, body); return err }
	}
	if err := Write(path, put("one")); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, put("two")); err != nil {
		t.Fatal(err)
	}
	// A failed write publishes nothing: the old file stays, whole.
	boom := errors.New("boom")
	err := Write(path, func(w io.Writer) error {
		io.WriteString(w, "torn")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write = %v, want the writer's error", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "two" {
		t.Fatalf("file = %q, %v; want the last published content", got, err)
	}
	if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o644 {
		t.Fatalf("mode = %v, %v; want 0644", st.Mode(), err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %d entries (%v), want only the artifact: temp files leaked", len(entries), err)
	}
	if err := Write(filepath.Join(dir, "missing", "artifact"), put("x")); err == nil {
		t.Fatal("Write into a missing directory succeeded")
	}
}
