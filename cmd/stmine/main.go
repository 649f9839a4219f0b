// Command stmine mines spatiotemporal burstiness patterns from a JSONL
// corpus produced by stgen (-kind topix).
//
// Usage:
//
//	stgen -kind topix > corpus.jsonl
//	stmine -term earthquake -method stlocal < corpus.jsonl
//	stmine -term fujimori   -method stcomb  -k 5 < corpus.jsonl
//	stmine -all -method stlocal -parallel 8 -corpus corpus.jsonl
//	stmine -all -corpus corpus.jsonl -o regional.bundle
//	stmine -all -method all -corpus corpus.jsonl -o corpus.bundle
//
// With -all, the entire corpus vocabulary is mined concurrently across a
// bounded worker pool (-parallel workers, default one per CPU) and the
// top-k patterns corpus-wide are printed together with their terms; the
// output is identical for every worker count. -o additionally writes the
// mined index as a bundle, the artifact cmd/stserve loads at boot — mine
// once, serve many.
//
// -method all mines all three pattern kinds (regional, combinatorial,
// temporal) in a single pass over one shared worker pool and writes the
// three indexes into the one bundle, the artifact a multi-kind stserve
// boots from; the top-k listing then tags each pattern with its kind.
//
// -shards N (requires -all -method all -o) splits the mined vocabulary
// into N shard bundles by hashing each term's canonical string
// (index.TermShard), written as PATH-shard<i>-of<N>.ext next to the -o
// path. Every shard bundle records its coordinates, the partition
// scheme and the corpus checksum, so stserve and the stgate coordinator
// can refuse a mixed or foreign shard set:
//
//	stmine -all -method all -shards 3 -corpus corpus.jsonl -o corpus.bundle
//	stserve -corpus corpus.jsonl -snapshot corpus-shard0-of3.bundle -addr :8081
//	stgate  -shard http://host1:8081 -shard http://host2:8082 -shard http://host3:8083
//
// Streams are projected onto the 2-D plane with multidimensional scaling
// over their pairwise geographic distances, as in §6.1 of the paper.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"stburst/internal/corpusio"
	"stburst/internal/index"
	"stburst/internal/search"
	"stburst/internal/stream"
)

func main() {
	var (
		term     = flag.String("term", "", "term to mine (required unless -all)")
		all      = flag.Bool("all", false, "mine every term of the corpus")
		method   = flag.String("method", "stlocal", "miner: stlocal, stcomb, temporal or all (temporal and all require -all)")
		k        = flag.Int("k", 5, "number of patterns to print")
		parallel = flag.Int("parallel", 0, "mining workers for -all (<1 = one per CPU)")
		corpus   = flag.String("corpus", "", "JSONL corpus path (default: read stdin)")
		out      = flag.String("o", "", "write the mined index as a bundle to this path (requires -all)")
		shards   = flag.Int("shards", 1, "split the mined vocabulary into this many shard bundles (requires -all -method all -o)")
	)
	flag.Parse()
	if err := validateFlags(*term, *all, *method, *out, *shards); err != nil {
		fmt.Fprintln(os.Stderr, "stmine:", err)
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	if *corpus != "" {
		f, err := os.Open(*corpus)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stmine:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	col, _, err := corpusio.Load(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stmine:", err)
		os.Exit(1)
	}
	if col.NumDocs() == 0 {
		fmt.Fprintln(os.Stderr, "stmine: corpus contains no documents")
		os.Exit(1)
	}
	if *all {
		err = mineAll(os.Stdout, os.Stderr, col, *method, *k, *parallel, *out, *shards)
	} else {
		err = mineTerm(os.Stdout, col, *term, *method, *k)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stmine:", err)
		os.Exit(exitCode(err))
	}
}

// usageError marks a bad flag combination (exit 2, not 1).
type usageError string

func (e usageError) Error() string { return string(e) }

// methodKinds resolves -method to the kinds it mines: one kind by its
// pattern or paper name, or every kind for "all".
func methodKinds(method string) ([]*index.Kind, error) {
	if method == "all" {
		return index.Kinds(), nil
	}
	kind, ok := index.ParseKind(method)
	if !ok {
		return nil, usageError(fmt.Sprintf("unknown method %q", method))
	}
	return []*index.Kind{kind.Desc()}, nil
}

// validateFlags rejects impossible flag combinations before any corpus
// is read. Splitting into shards needs the one mode that produces whole-
// vocabulary bundles: -all -method all with an -o path to derive the
// per-shard file names from (-shards exceeding the vocabulary size is
// caught after the corpus loads, in mineAll).
func validateFlags(term string, all bool, method, out string, shards int) error {
	if term == "" && !all {
		return usageError("-term is required (or pass -all)")
	}
	if _, err := methodKinds(method); err != nil {
		return err
	}
	if !all && method == "all" {
		return usageError("-method all requires -all (it mines every kind corpus-wide)")
	}
	if !all && (method == "temporal" || method == "tb") {
		return usageError("-method temporal requires -all (it mines the merged stream corpus-wide)")
	}
	if out != "" && !all {
		return usageError("-o requires -all (bundles hold the whole vocabulary)")
	}
	if shards < 1 {
		return usageError(fmt.Sprintf("-shards %d: need at least 1 shard", shards))
	}
	if shards > 1 {
		if !all || method != "all" {
			return usageError("-shards requires -all -method all (every shard bundle carries all three kinds)")
		}
		if out == "" {
			return usageError("-shards requires -o (shard bundles are on-disk artifacts, not listings)")
		}
	}
	return nil
}

// shardBundlePath derives shard i's bundle file name from the -o path:
// corpus.bundle becomes corpus-shard0-of3.bundle and so on, keeping the
// extension so every artifact stays recognizably a bundle.
func shardBundlePath(path string, shard, shards int) string {
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s-shard%d-of%d%s", strings.TrimSuffix(path, ext), shard, shards, ext)
}

func exitCode(err error) int {
	if _, ok := err.(usageError); ok {
		return 2
	}
	return 1
}

// mine runs the kinds' miners over the given terms on one shared worker
// pool and returns one pattern set per kind.
func mine(col *stream.Collection, kinds []*index.Kind, terms []int, parallel int) ([]*index.PatternSet, error) {
	empty := make([]*index.PatternSet, len(kinds))
	for i, k := range kinds {
		empty[i] = index.EmptySet(k.ID)
	}
	return search.MineSets(context.Background(), col, terms, empty, &index.MineOptions{}, parallel)
}

// describe renders one pattern from the fields its kind stores; a
// regional window's score is the paper's w-score (Eq. 9).
func describe(col *stream.Collection, k *index.Kind, v index.View) string {
	s := fmt.Sprintf("score %.3f  weeks [%d,%d]", v.Score, v.Start, v.End)
	if k.Rect {
		s = fmt.Sprintf("w-%s  region %v", s, v.Rect)
	}
	if !k.Streams {
		return s + "  merged stream"
	}
	return s + fmt.Sprintf("  %d streams: %s", len(v.Streams), names(col, v.Streams, 6))
}

// mineTerm mines one term with one kind's miner and prints its k best
// patterns.
func mineTerm(out io.Writer, col *stream.Collection, term, method string, k int) error {
	kinds, err := methodKinds(method)
	if err != nil {
		return err
	}
	id, ok := col.Dict().Lookup(term)
	if !ok {
		return fmt.Errorf("term %q not in corpus", term)
	}
	sets, err := mine(col, kinds, []int{id}, 1)
	if err != nil {
		return err
	}
	views := sets[0].Views(id)
	if len(views) > k {
		views = views[:k]
	}
	for i, v := range views {
		fmt.Fprintf(out, "#%d  %s\n", i+1, describe(col, kinds[0], v))
	}
	return nil
}

// mineAll mines the whole vocabulary with -method's kinds — all of them
// in a single pass over one shared worker pool for "all" — prints the
// top-k patterns across all terms and kinds to out and, when path is
// set, writes the artifact a serving process boots from: one bundle of
// the mined kinds (-method all tags each listing line with its kind),
// or with shards > 1 one sharded bundle per vocabulary slice next to
// path.
func mineAll(out, diag io.Writer, col *stream.Collection, method string, k, parallel int, path string, shards int) error {
	kinds, err := methodKinds(method)
	if err != nil {
		return err
	}
	if shards > col.Dict().Len() {
		return usageError(fmt.Sprintf("-shards %d exceeds the vocabulary size %d (a shard must own at least one term)",
			shards, col.Dict().Len()))
	}
	start := time.Now()
	sets, err := mine(col, kinds, col.Terms(), parallel)
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Round(time.Millisecond)
	total := 0
	for _, set := range sets {
		total += set.NumPatterns()
	}
	term := col.Dict().Term
	fmt.Fprintf(diag, "stmine: mined %d terms x %d kinds, %d patterns in %v\n", col.Dict().Len(), len(sets), total, elapsed)
	for _, set := range sets {
		fmt.Fprintf(diag, "stmine: %-13s %d terms, %d patterns, fingerprint %.12s...\n",
			set.Kind(), set.NumTerms(), set.NumPatterns(), set.Fingerprint())
	}
	// A freshly mined artifact starts the generation sequence at 0; live
	// ingestion through stserve advances it from there.
	switch {
	case path == "":
	case shards > 1:
		// One sharded bundle per vocabulary slice, each stamped with its
		// coordinates, the partition scheme and the corpus checksum so a
		// serving cluster can detect a mixed or foreign shard set.
		parts, err := index.SplitSets(sets, term, shards)
		if err != nil {
			return err
		}
		checksum := col.Checksum()
		for i, part := range parts {
			info := index.ShardInfo{Shard: i, Shards: shards, Scheme: index.ShardScheme, CorpusFingerprint: checksum}
			shardPath := shardBundlePath(path, i, shards)
			if err := (&index.Bundle{Sets: part, Shard: info}).WriteFile(shardPath, term); err != nil {
				return err
			}
			terms, patterns := 0, 0
			for _, set := range part {
				terms += set.NumTerms()
				patterns += set.NumPatterns()
			}
			fmt.Fprintf(diag, "stmine: shard %d/%d written to %s (%d terms, %d patterns)\n",
				i, shards, shardPath, terms, patterns)
		}
	default:
		if err := (&index.Bundle{Sets: sets, Shard: index.ShardInfo{Shards: 1}}).WriteFile(path, term); err != nil {
			return err
		}
		fmt.Fprintf(diag, "stmine: bundle written to %s (%d members)\n", path, len(sets))
	}

	// One merged top-k across terms and kinds. Per-term pattern slices
	// are already deterministically ordered, so (score, kind, term,
	// position) is a total order; only the k survivors are formatted.
	type scored struct {
		set   int // position in sets and kinds
		term  int
		idx   int // position within the term's pattern slice
		score float64
	}
	var top []scored
	for si, set := range sets {
		for _, t := range set.Terms() {
			for i, v := range set.Views(t) {
				top = append(top, scored{si, t, i, v.Score})
			}
		}
	}
	sort.Slice(top, func(i, j int) bool {
		a, b := top[i], top[j]
		if a.score != b.score {
			return a.score > b.score
		}
		if a.set != b.set {
			return kinds[a.set].Name < kinds[b.set].Name
		}
		if a.term != b.term {
			return a.term < b.term
		}
		return a.idx < b.idx
	})
	if len(top) > k {
		top = top[:k]
	}
	for i, s := range top {
		tag := ""
		if method == "all" {
			tag = "[" + kinds[s.set].Name + "] "
		}
		fmt.Fprintf(out, "#%d  %s%-18s %s\n", i+1, tag, term(s.term),
			describe(col, kinds[s.set], sets[s.set].Views(s.term)[s.idx]))
	}
	return nil
}

func names(col *stream.Collection, streams []int, max int) string {
	out := ""
	for i, x := range streams {
		if i == max {
			return out + ", ..."
		}
		if i > 0 {
			out += ", "
		}
		out += col.Stream(x).Name
	}
	return out
}
