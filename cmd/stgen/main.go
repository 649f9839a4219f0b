// Command stgen generates synthetic spatiotemporal corpora as JSONL.
//
// Usage:
//
//	stgen -kind topix [-seed N] [-articles N] [-vocab N] [-tokens N] > corpus.jsonl
//	stgen -kind topix -follow -rate 100 -o feed.jsonl
//	stgen -kind distgen|randgen [-streams N] [-timeline N] [-terms N] [-patterns N] > surfaces.jsonl
//
// -follow turns stgen into a live feed for the stserve -tail connector:
// instead of dumping the whole corpus at once it appends one document
// line to -o every 1/-rate seconds, flushing per line so a tailer sees
// whole documents promptly. The file is created with its header line if
// missing; re-running with the same seed resumes exactly where the file
// left off (a torn last line from a killed writer is truncated away
// first), because the same seed always generates the same sequence.
//
// For -kind topix each output line is a document:
//
//	{"stream":"Peru","time":31,"tokens":["fujimori","sentenced",...],"event":17}
//
// (event is the ground-truth label, 0 for background). The first line is
// a header describing the streams. For the artificial generators each
// line is one injected pattern's ground truth followed by per-term
// frequency series of its member streams.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"stburst/internal/corpusio"
	"stburst/internal/gen"
)

type patternLine struct {
	Term    int         `json:"term"`
	Streams []int       `json:"streams"`
	Start   int         `json:"start"`
	End     int         `json:"end"`
	Series  [][]float64 `json:"series"` // member streams × timeline
}

func main() {
	var (
		kind     = flag.String("kind", "topix", "corpus kind: topix, distgen, randgen")
		seed     = flag.Int64("seed", 1, "random seed")
		articles = flag.Float64("articles", 0, "topix: mean articles per country-week (0 = default)")
		vocab    = flag.Int("vocab", 0, "topix: vocabulary size (0 = default)")
		tokens   = flag.Float64("tokens", 0, "topix: mean tokens per article (0 = default)")
		streams  = flag.Int("streams", 500, "artificial: number of streams")
		timeline = flag.Int("timeline", 365, "artificial: timeline length")
		terms    = flag.Int("terms", 10000, "artificial: number of terms")
		patterns = flag.Int("patterns", 1000, "artificial: number of injected patterns")
		follow   = flag.Bool("follow", false, "topix: append documents to -o at -rate docs/sec instead of dumping to stdout, resuming a partially written file")
		rate     = flag.Float64("rate", 50, "with -follow: documents appended per second")
		outPath  = flag.String("o", "", "with -follow: the feed file to create or resume (required)")
	)
	flag.Parse()
	if *follow {
		if *kind != "topix" {
			fatal(fmt.Errorf("-follow supports only -kind topix"))
		}
		if *outPath == "" {
			fatal(fmt.Errorf("-follow requires -o: a feed file to append to"))
		}
		if *rate <= 0 {
			fatal(fmt.Errorf("-rate must be positive, got %v", *rate))
		}
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	enc := json.NewEncoder(w)

	switch *kind {
	case "topix":
		tp, err := gen.NewTopix(gen.TopixConfig{
			Seed:             *seed,
			WeeklyArticles:   *articles,
			Vocab:            *vocab,
			TokensPerArticle: *tokens,
			RetainCounts:     true,
		})
		if err != nil {
			fatal(err)
		}
		if *follow {
			must(followTopix(tp, *outPath, *rate))
			return
		}
		col := tp.Col
		must(enc.Encode(topixHeader(tp)))
		for id := 0; id < col.NumDocs(); id++ {
			must(enc.Encode(topixDoc(tp, id)))
		}
	case "distgen", "randgen":
		mode := gen.DistGen
		if *kind == "randgen" {
			mode = gen.RandGen
		}
		ds := gen.NewSynth(gen.SynthConfig{
			Streams:  *streams,
			Timeline: *timeline,
			Terms:    *terms,
			Patterns: *patterns,
			Mode:     mode,
			Seed:     *seed,
		})
		must(enc.Encode(corpusio.Header{Kind: *kind, Timeline: *timeline}))
		for _, p := range ds.Patterns() {
			line := patternLine{Term: p.Term, Streams: p.Streams, Start: p.Start, End: p.End}
			for _, x := range p.Streams {
				line.Series = append(line.Series, ds.Series(p.Term, x))
			}
			must(enc.Encode(line))
		}
	default:
		fatal(fmt.Errorf("unknown -kind %q", *kind))
	}
}

func topixHeader(tp *gen.Topix) corpusio.Header {
	col := tp.Col
	h := corpusio.Header{Kind: "topix", Timeline: col.Length()}
	for i := 0; i < col.NumStreams(); i++ {
		h.Streams = append(h.Streams, col.Stream(i).Name)
	}
	return h
}

func topixDoc(tp *gen.Topix, id int) corpusio.DocLine {
	col := tp.Col
	d := col.Doc(id)
	counts := make(map[string]int, len(d.Counts))
	for term, n := range d.Counts {
		counts[col.Dict().Term(term)] = n
	}
	return corpusio.DocLine{
		Stream: col.Stream(d.Stream).Name,
		Time:   d.Time,
		Counts: counts,
		Event:  tp.Labels[id],
	}
}

// followTopix appends the generated documents to path one line every
// 1/rate seconds, creating the file (header first) when it is missing
// and otherwise resuming after the last complete line — generation is
// seed-deterministic, so the next document is always line count minus
// the header. A torn final line (a previous follower killed mid-write)
// is truncated away before appending; json.Encoder sorts the count
// maps' keys, so resumed bytes match what a single run would have
// produced.
func followTopix(tp *gen.Topix, path string, rate float64) error {
	col := tp.Col
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	lines, err := resumeTruncate(f)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	next := 0
	if lines == 0 {
		if err := enc.Encode(topixHeader(tp)); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
	} else {
		next = lines - 1
	}
	if next >= col.NumDocs() {
		fmt.Fprintf(os.Stderr, "stgen: %s already holds all %d documents\n", path, col.NumDocs())
		return nil
	}
	fmt.Fprintf(os.Stderr, "stgen: following %s from document %d/%d at %g docs/sec\n",
		path, next, col.NumDocs(), rate)
	interval := time.Duration(float64(time.Second) / rate)
	for id := next; id < col.NumDocs(); id++ {
		if err := enc.Encode(topixDoc(tp, id)); err != nil {
			return err
		}
		// One flush per line: the tailer must never wait on a half-
		// buffered document, and a kill tears at most the line in
		// flight.
		if err := w.Flush(); err != nil {
			return err
		}
		time.Sleep(interval)
	}
	fmt.Fprintf(os.Stderr, "stgen: feed complete: %d documents in %s\n", col.NumDocs(), path)
	return nil
}

// resumeTruncate counts the complete lines in f and truncates any
// trailing partial line, leaving the write offset at the end.
func resumeTruncate(f *os.File) (lines int, err error) {
	r := bufio.NewReader(f)
	var off, lastNL int64
	for {
		b, err := r.ReadByte()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		off++
		if b == '\n' {
			lines++
			lastNL = off
		}
	}
	if off > lastNL {
		if err := f.Truncate(lastNL); err != nil {
			return 0, err
		}
	}
	if _, err := f.Seek(lastNL, io.SeekStart); err != nil {
		return 0, err
	}
	return lines, nil
}

func must(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stgen:", err)
	os.Exit(1)
}
