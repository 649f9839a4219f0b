// Package corpusio reads and writes the JSONL corpus interchange format
// used by the command-line tools: a header line describing the streams
// and the timeline, followed by one document per line.
package corpusio

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"stburst/internal/atomicfile"
	"stburst/internal/gen"
	"stburst/internal/stream"
)

// Header is the first JSONL line of a corpus.
type Header struct {
	Kind     string   `json:"kind"`
	Streams  []string `json:"streams"`
	Timeline int      `json:"timeline"`
}

// DocLine is one document line.
type DocLine struct {
	Stream string         `json:"stream"`
	Time   int            `json:"time"`
	Counts map[string]int `json:"counts"`
	Event  int            `json:"event"`
}

// Load reads a topix-kind corpus, rebuilding the collection with stream
// locations projected by MDS over country distances (as §6.1 of the
// paper does), and returns the per-document ground-truth event labels.
func Load(r io.Reader) (*stream.Collection, []int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, nil, fmt.Errorf("corpusio: reading input: %w", err)
		}
		return nil, nil, fmt.Errorf("corpusio: empty corpus (missing header line)")
	}
	var h Header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, nil, fmt.Errorf("corpusio: reading header: %w", err)
	}
	if h.Kind != "topix" {
		return nil, nil, fmt.Errorf("corpusio: unsupported corpus kind %q", h.Kind)
	}
	infos, err := gen.ProjectStreams(h.Streams)
	if err != nil {
		return nil, nil, err
	}
	col := stream.NewCollection(infos, h.Timeline)
	col.SetRetainCounts(false)
	var (
		labels []int
		counts []stream.TermCount // one slice reused by every line
	)
	for sc.Scan() {
		d, err := scanDoc(sc.Bytes(), counts)
		if err != nil {
			return nil, nil, fmt.Errorf("corpusio: reading document: %w", err)
		}
		counts = d.counts
		x, err := col.Resolve(string(d.stream), d.time)
		if err != nil {
			return nil, nil, fmt.Errorf("corpusio: document from %w", err)
		}
		// AddTermCounts interns each document's terms in sorted order, as
		// stream.Collection.Append does for post-load batches: snapshot
		// portability (plus stable cross-process index fingerprints)
		// needs every load of a corpus to assign identical dictionary
		// IDs, and a corpus replayed as load-then-append must assign the
		// loaded prefix identically.
		if _, err := col.AddTermCounts(x, d.time, d.counts); err != nil {
			return nil, nil, err
		}
		labels = append(labels, d.event)
	}
	return col, labels, sc.Err()
}

// AppendDocs atomically appends document lines to the corpus file at
// path: the existing file is copied line by line to a temp file in the
// same directory, the new lines are appended, and the temp file is
// fsync'd and renamed over the original (atomicfile.Write) — a crash
// leaves either the old corpus or the new one, never a torn tail. The
// pick callback receives the number of document lines the existing file
// holds and returns the lines to append, so a caller that may retry
// after a partial failure (WAL absorption whose prune step crashed) can
// skip documents a previous append already folded in; returning no lines
// leaves the file untouched. The header is validated and preserved
// verbatim; appended lines must reference its streams and timeline
// (enforced by the next Load, not here). Document counts marshal with
// sorted keys, so the appended bytes are deterministic.
func AppendDocs(path string, pick func(existing int) []DocLine) (int, error) {
	src, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("corpusio: %w", err)
	}
	defer src.Close()
	appended := 0
	err = atomicfile.Write(path, func(tmp io.Writer) error {
		sc := bufio.NewScanner(src)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		w := bufio.NewWriter(tmp)
		existing := -1 // the first line is the header, not a document
		for sc.Scan() {
			line := sc.Bytes()
			if existing < 0 {
				var h Header
				if err := json.Unmarshal(line, &h); err != nil {
					return fmt.Errorf("reading header: %w", err)
				}
				if h.Kind != "topix" {
					return fmt.Errorf("unsupported corpus kind %q", h.Kind)
				}
			}
			existing++
			w.Write(line) // a failed write is sticky and surfaces at Flush
			w.WriteByte('\n')
		}
		if err := sc.Err(); err != nil {
			return fmt.Errorf("reading corpus: %w", err)
		}
		if existing < 0 {
			return errors.New("empty corpus (missing header line)")
		}
		docs := pick(existing)
		if len(docs) == 0 {
			return errNothingToAppend
		}
		enc := json.NewEncoder(w)
		for _, d := range docs {
			if err := enc.Encode(d); err != nil {
				return fmt.Errorf("appending document: %w", err)
			}
		}
		appended = len(docs)
		return w.Flush()
	})
	switch {
	case errors.Is(err, errNothingToAppend):
		return 0, nil
	case err != nil:
		return 0, fmt.Errorf("corpusio: %w", err)
	}
	return appended, nil
}

// errNothingToAppend aborts AppendDocs's rewrite, leaving the corpus
// file untouched, when pick selects no lines.
var errNothingToAppend = errors.New("nothing to append")
