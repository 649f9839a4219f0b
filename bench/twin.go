package main

import (
	"bytes"

	"stburst"
	"stburst/internal/corpusio"
	"stburst/internal/index"
	"stburst/internal/search"
	"stburst/internal/stream"
	"stburst/internal/textproc"
)

// twin is the same corpus and bundle seen through the internal packages,
// for the layers the public API wraps: the inverted index under each
// engine, the tokenizer, the pattern maps.
type twin struct {
	col  *stream.Collection
	sets map[stburst.Kind]*index.PatternSet
	engs map[stburst.Kind]*search.Engine
	tok  *textproc.Tokenizer
}

func loadTwin(raw, bundle []byte) (*twin, error) {
	col, _, err := corpusio.Load(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	snaps, _, err := index.ReadBundle(bytes.NewReader(bundle))
	if err != nil {
		return nil, err
	}
	tw := &twin{col: col, sets: map[stburst.Kind]*index.PatternSet{}, engs: map[stburst.Kind]*search.Engine{}, tok: textproc.NewTokenizer()}
	for _, sn := range snaps {
		set, err := sn.Remap(col.Dict().Lookup)
		if err != nil {
			return nil, err
		}
		kind, err := stburst.ParseKind(set.Kind().String())
		if err != nil {
			return nil, err
		}
		tw.sets[kind] = set
		tw.engs[kind] = search.BuildFromPatterns(col, set)
	}
	return tw, nil
}

// topK times the Threshold-Algorithm retrieval under one single-kind
// query: the first fetch Engine.Run makes, at its depth.
func (tw *twin) topK(tr *tracer, op, parent int, toks []string, q stburst.Query) {
	ids := make([]int, 0, len(toks))
	for _, t := range toks {
		id, ok := tw.col.Dict().Lookup(t)
		if !ok {
			return
		}
		ids = append(ids, id)
	}
	ix := tw.engs[q.Kind].Index()
	fetch := min(q.Offset+q.K+1, ix.CandidateBound(ids))
	if len(ids) == 0 || fetch <= 0 {
		return
	}
	tr.timeSpan("index.topk", op, parent, func() { ix.TopK(ids, fetch, index.MissingExcludes) })
}
