// Command stsearch answers bursty-document queries over a JSONL corpus
// produced by stgen: it mines one (or, with -kind any, all) of the three
// burstiness models of the paper (§5–6.3) into a pattern store and
// prints the top-k documents for the query, optionally restricted to a
// spatial region and/or timeframe (hits must have a contributing pattern
// intersecting the filter).
//
// -kind selects the burstiness model: regional (stlocal), combinatorial
// (stcomb), temporal (tb), or "any" — which mines all three kinds in one
// pass, fans the query out to each, and merges the rankings, tagging
// every hit with the kind that scored it.
//
// Usage:
//
//	stgen -kind topix > corpus.jsonl
//	stsearch -kind regional -q earthquake -k 10 < corpus.jsonl
//	stsearch -kind stcomb   -q "air france" < corpus.jsonl
//	stsearch -kind any      -q fujimori < corpus.jsonl
//	stsearch -q earthquake -region -10,-10,10,10 -from 4 -to 9 < corpus.jsonl
//	stsearch -q earthquake -k 5 -offset 5 -min-score 1.5 < corpus.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"stburst"
	"stburst/internal/geo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with its environment injected, so the CLI tests can drive
// it end to end. It returns the process exit code: 0 on success, 1 on
// data errors, 2 on usage errors.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stsearch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kindName = fs.String("kind", "", "pattern kind: regional/stlocal, combinatorial/stcomb, temporal/tb, or any (default regional)")
		query    = fs.String("q", "", "query terms (required)")
		k        = fs.Int("k", 10, "number of documents to retrieve")
		offset   = fs.Int("offset", 0, "number of ranked documents to skip (pagination)")
		minScore = fs.Float64("min-score", 0, "drop documents scoring below this threshold")
		region   = fs.String("region", "", "spatial filter minX,minY,maxX,maxY: hits need a contributing pattern intersecting it")
		from     = fs.Int("from", -1, "first timestamp of the temporal filter (inclusive; -1 = unbounded)")
		to       = fs.Int("to", -1, "last timestamp of the temporal filter (inclusive; -1 = unbounded)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *query == "" {
		fmt.Fprintln(stderr, "stsearch: -q is required")
		return 2
	}
	if *kindName == "" {
		*kindName = "regional"
	}
	kind, err := stburst.ParseKind(*kindName)
	if err != nil {
		fmt.Fprintln(stderr, "stsearch: -kind:", err)
		return 2
	}

	c, labels, err := stburst.LoadCorpusLabeled(stdin)
	if err != nil {
		fmt.Fprintln(stderr, "stsearch:", err)
		return 1
	}
	fmt.Fprintf(stderr, "corpus: %d documents, %d streams, %d weeks\n",
		c.NumDocs(), c.NumStreams(), c.Timeline())

	start := time.Now()
	var kinds []stburst.Kind // -kind any mines every kind
	if kind != stburst.KindAny {
		kinds = append(kinds, kind)
	}
	store, err := c.MineStore(context.Background(), nil, kinds...)
	if err != nil {
		fmt.Fprintln(stderr, "stsearch:", err)
		return 1
	}
	fmt.Fprintf(stderr, "%s engine built in %v\n", kind, time.Since(start).Round(time.Millisecond))

	q := stburst.Query{Text: *query, Kind: kind, K: *k, Offset: *offset, MinScore: *minScore}
	if *region != "" {
		r, err := geo.ParseRect(*region)
		if err != nil {
			fmt.Fprintln(stderr, "stsearch: -region:", err)
			return 2
		}
		q.Region = &r
	}
	if *from >= 0 || *to >= 0 {
		span := stburst.Timespan{Start: 0, End: c.Timeline() - 1}
		if *from >= 0 {
			span.Start = *from
		}
		if *to >= 0 {
			span.End = *to
		}
		if span.Start > span.End {
			// Only an explicit -from > -to is a user error. A one-sided
			// bound past the data (e.g. -from beyond the timeline) is a
			// valid empty range, matching stserve's ?from=&to= handling:
			// degenerate it into a span that overlaps nothing.
			if *to >= 0 {
				fmt.Fprintf(stderr, "stsearch: timespan [%d, %d] is inverted\n", span.Start, span.End)
				return 2
			}
			// -from is past the timeline (the only one-sided inversion:
			// a lone -to can never undercut the default start of 0).
			span.End = span.Start
		}
		q.Time = &span
	}

	page, err := store.Query(context.Background(), q)
	if err != nil {
		fmt.Fprintln(stderr, "stsearch:", err)
		return 1
	}
	if len(page.Hits) == 0 {
		fmt.Fprintln(stdout, "no bursty documents found for the query")
		return 0
	}
	for i, h := range page.Hits {
		label := ""
		if labels != nil && labels[h.Doc.ID] != 0 {
			label = fmt.Sprintf("  [event %d]", labels[h.Doc.ID])
		}
		tag := ""
		if kind == stburst.KindAny {
			tag = fmt.Sprintf("  [%s]", h.Kind)
		}
		fmt.Fprintf(stdout, "%2d. doc %-7d %-22s week %-3d score %.3f%s%s\n",
			*offset+i+1, h.Doc.ID, h.Stream, h.Doc.Time, h.Score, tag, label)
	}
	if page.More {
		fmt.Fprintf(stdout, "(more hits beyond this page: re-run with -offset %d)\n", *offset+len(page.Hits))
	}
	return 0
}
