package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"stburst"
	"stburst/internal/core"
	"stburst/internal/corpusio"
	"stburst/internal/index"
	"stburst/internal/search"
)

// mineCold takes a corpus from nothing to a serving store: one
// Collection.MineStore pass over every term and all three kinds at the
// default parallelism, Store.Save, and the restart (LoadCorpus +
// LoadStore + every engine built). HTTP does none of the work.
type mineCold struct {
	e      *env
	raw    []byte
	c      *stburst.Collection
	p      plan
	wantFP string   // fingerprints of the one-worker pass
	wantBB [32]byte // digest of its bundle bytes
	store  *stburst.Store
	bundle bytes.Buffer
}

const (
	mcMine = iota
	mcSave
	mcBoot
)

func (w *mineCold) prepare() error {
	raw, err := corpusJSONL(w.e.size.XS, w.e.seed)
	if err != nil {
		return err
	}
	w.raw = raw
	// The oracle: the sequential loop. Any worker count must reproduce its
	// fingerprints and its bundle bytes.
	c, err := stburst.LoadCorpus(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	ref, err := c.MineStore(context.Background(), stburst.NewMineOptions(stburst.WithParallelism(1)))
	if err != nil {
		return err
	}
	var b bytes.Buffer
	if err := ref.Save(&b); err != nil {
		return err
	}
	w.wantFP, w.wantBB = fingerprints(ref), sha256.Sum256(b.Bytes())
	terms := len(c.Terms())
	w.p = plan{
		Classes: []class{
			{Name: "mine", Units: float64(terms * len(stburst.Kinds()))},
			{Name: "save", Side: true},
			{Name: "boot", Side: true},
		},
		OpClass:     []int{mcMine, mcSave, mcBoot},
		Unit:        "term-kind",
		MinRounds:   w.e.size.MineMinRounds,
		Fingerprint: fingerprintOps(raw),
	}
	return nil
}

func (w *mineCold) boot() error {
	c, err := stburst.LoadCorpus(bytes.NewReader(w.raw))
	w.c = c
	return err
}

func (w *mineCold) plan() plan { return w.p }

func (w *mineCold) beginRound() error { return nil }

func (w *mineCold) do(i int) (time.Duration, time.Duration, error) {
	ctx := context.Background()
	var err error
	start, end, lost := heavy(func() {
		switch i {
		case mcMine:
			w.store, err = w.c.MineStore(ctx, nil)
		case mcSave:
			w.bundle.Reset()
			err = w.store.Save(&w.bundle)
		case mcBoot:
			_, w.store, err = bootStore(w.raw, w.bundle.Bytes())
		}
	})
	w.e.tr.add([]string{"mine.store", "store.save", "boot"}[i], i, -1, start, end)
	d := end.Sub(start)
	if err != nil {
		return d, lost, err
	}
	if i == mcSave {
		if sha256.Sum256(w.bundle.Bytes()) != w.wantBB {
			return d, lost, fmt.Errorf("bundle bytes differ from the one-worker pass's")
		}
	} else if got := fingerprints(w.store); got != w.wantFP {
		return d, lost, fmt.Errorf("fingerprints %s differ from the one-worker pass's %s", got, w.wantFP)
	}
	return d, lost, nil
}

func (w *mineCold) endRound() error { return nil }

// layers times the miners one kind at a time on one worker, and the
// codecs under Save and the boot, each LayerReps times over.
func (w *mineCold) layers() (map[string]float64, error) {
	ctx := context.Background()
	tr := w.e.tr
	terms := w.p.Classes[mcMine].Units / float64(len(stburst.Kinds()))
	out := map[string]float64{}
	measure := func(name string, scale float64, fn func() error) error {
		var ts []float64
		for i := 0; i < w.e.size.LayerReps; i++ {
			start := time.Now()
			if err := fn(); err != nil {
				return err
			}
			ts = append(ts, ms(time.Since(start).Nanoseconds()))
		}
		out[name] = median(ts) / scale
		return nil
	}

	col, _, err := corpusio.Load(bytes.NewReader(w.raw))
	if err != nil {
		return nil, err
	}
	var sets []*index.PatternSet
	var bundle bytes.Buffer
	steps := []struct {
		name  string
		scale float64
		fn    func() error
	}{
		{"corpusio.load_ms", 1, func() error { _, _, err := corpusio.Load(bytes.NewReader(w.raw)); return err }},
		{"core.stlocal_ms_per_term", terms, func() error {
			_, err := search.MineWindowsParCtx(ctx, col, core.STLocalOptions{}, 1)
			return err
		}},
		{"core.stcomb_ms_per_term", terms, func() error {
			_, err := search.MineCombPatternsParCtx(ctx, col, core.STCombOptions{}, 1)
			return err
		}},
		{"burst.temporal_ms_per_term", terms, func() error {
			_, err := search.MineTemporalParCtx(ctx, col, nil, 1)
			return err
		}},
		{"search.mine1_ms", 1, func() error {
			ws, cs, ts, err := search.MineAllKindsParCtx(ctx, col, core.STLocalOptions{}, core.STCombOptions{}, nil, 1)
			sets = []*index.PatternSet{index.NewWindowSet(ws), index.NewCombSet(cs), index.NewTemporalSet(ts)}
			return err
		}},
		{"index.encode_ms", 1, func() error {
			bundle.Reset()
			return index.WriteBundle(&bundle, sets, col.Dict().Term, 0)
		}},
		{"index.decode_ms", 1, func() error { _, _, err := index.ReadBundle(bytes.NewReader(bundle.Bytes())); return err }},
		{"search.build_ms", 1, func() error {
			for _, set := range sets {
				search.BuildFromPatterns(col, set)
			}
			return nil
		}},
	}
	for _, s := range steps {
		if err := measure(s.name, s.scale, s.fn); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	patterns := 0
	for _, set := range sets {
		patterns += set.NumPatterns()
	}
	out["mine.patterns"] = float64(patterns)
	out["index.bundle_bytes"] = float64(bundle.Len())
	out["index.bytes_per_pattern"] = float64(bundle.Len()) / float64(patterns)
	if runtime.GOMAXPROCS(0) >= speedupMinProcs {
		out["par.speedup"] = out["search.mine1_ms"] / tr.layerMS("mine.store", nil)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := w.c.MineStore(ctx, nil); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	out["mine.allocs_per_term"] = float64(after.Mallocs-before.Mallocs) / terms
	out["mine.alloc_mb_per_pass"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	return out, nil
}

func (w *mineCold) close() {}
