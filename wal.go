package stburst

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"stburst/internal/stream"
	"stburst/internal/wal"
)

// WALSync selects when logged batches reach stable storage.
type WALSync = wal.SyncPolicy

const (
	// WALSyncAlways fsyncs every batch before Ingest acknowledges it —
	// the default, and the only policy under which "acknowledged" means
	// "survives kill -9".
	WALSyncAlways = wal.SyncAlways
	// WALSyncNever leaves flushing to the OS: faster, but a crash may
	// lose — or leave as unrecoverable corruption — batches that were
	// already acknowledged.
	WALSyncNever = wal.SyncNever
)

// walConfig collects OpenWAL's options: the log's own knobs plus the
// save-time pruning policy, which lives above the log (it couples the
// log to the corpus file).
type walConfig struct {
	opts      wal.Options
	prunePath string
}

// WALOption configures OpenWAL functional-style.
type WALOption func(*walConfig)

// WithWALSync sets the fsync policy (default WALSyncAlways).
func WithWALSync(p WALSync) WALOption {
	return func(c *walConfig) { c.opts.Sync = p }
}

// WithWALPrune arms save-time log pruning, off by default. After each
// successful Store.Save/SaveFile by the store this log is attached to,
// the sealed segments' documents are absorbed into the corpus JSONL
// file at corpusPath (atomically: the file is copied, appended and
// renamed, so a crash leaves either the old corpus or the new one) and
// the sealed segments are then deleted — the log stays bounded under
// sustained ingestion instead of growing forever.
//
// corpusPath must be the very corpus file the store's collection was
// loaded from: absorption appends exactly the logged batches, in log
// order, and refuses (without touching anything) when the batches do
// not abut the file's document count. A reboot then recovers
// bit-identically from the absorbed corpus plus the bundle plus
// whatever the log still holds — loading an absorbed document interns
// its terms exactly as the live Ingest did, and ReplayWAL skips batches
// whose documents the corpus already contains (a crash between the
// absorb and the prune leaves both copies; replaying the duplicate
// would corrupt the collection).
func WithWALPrune(corpusPath string) WALOption {
	return func(c *walConfig) { c.prunePath = corpusPath }
}

// WAL is an open write-ahead log for live ingestion. The boot sequence
// is:
//
//	w, _ := stburst.OpenWAL(dir)          // scan, truncate torn tail
//	c, _ := stburst.LoadCorpus(f)         // rebuild the corpus
//	c.ReplayWAL(ctx, w)                   // re-append the logged batches
//	store, _ := stburst.LoadStore(b, c)   // or c.MineStore(ctx, opts)
//	store.AttachWAL(ctx, w)               // re-mine what the bundle
//	                                      // misses, arm logging
//
// Replay must run before indexes are loaded or mined: logged batches
// may have interned new vocabulary the indexes reference. After
// AttachWAL, every Store.Ingest batch is fsync'd to the log before it
// applies, and a successful Store.Save rotates the log's segments.
//
// Close the WAL only after the store has stopped ingesting (in a
// server: after the HTTP listener has drained and the Ingester is
// closed).
type WAL struct {
	mu        sync.Mutex
	l         *wal.Log
	pending   []wal.Batch // scanned at open, consumed by ReplayWAL
	replayed  []replayedBatch
	replayCol *stream.Collection // guard: attach only to the replayed collection
	docs      int                // documents across replayed batches
	attached  bool
	prunePath string // corpus file for save-time absorption ("" = rotate only)
}

// replayedBatch is what AttachWAL needs from each replayed frame: its
// pre-batch generation (to tell whether a loaded bundle already mined
// it) and the dirty terms its append produced.
type replayedBatch struct {
	seq    uint64
	preGen uint64
	dirty  []int
}

// OpenWAL opens (creating if necessary) the write-ahead log in dir and
// scans it: a torn tail from a crashed write is truncated away, while
// mid-log corruption, a sequence gap or a duplicate is a hard error —
// under the default fsync policy those mean the disk lost acknowledged
// data, and silently skipping it would quietly un-acknowledge batches.
func OpenWAL(dir string, opts ...WALOption) (*WAL, error) {
	var cfg walConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	l, pending, err := wal.Open(dir, cfg.opts)
	if err != nil {
		return nil, fmt.Errorf("stburst: opening wal: %w", err)
	}
	return &WAL{l: l, pending: pending, prunePath: cfg.prunePath}, nil
}

// LastSeq returns the sequence number of the log's most recent intact
// frame (0 when the log has never held one).
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.l == nil {
		return 0
	}
	return w.l.Stats().LastSeq
}

// Close syncs and closes the log. Close only after ingestion has
// stopped: an attached store's Ingest fails once the log is closed.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.l == nil {
		return nil
	}
	err := w.l.Close()
	w.l = nil
	return err
}

// ReplayResult reports one boot-time WAL replay into a collection.
type ReplayResult struct {
	// Batches is the number of logged batches re-appended.
	Batches int
	// Docs is the number of documents across them.
	Docs int
	// Skipped is the number of logged batches whose documents the
	// loaded corpus already contained and that were therefore not
	// re-appended — a save with pruning enabled (WithWALPrune) absorbed
	// them into the corpus file but crashed before deleting their
	// segments.
	Skipped int
}

// ReplayWAL re-appends every batch the log holds, in sequence order,
// through the same deterministic append Store.Ingest uses — so
// the replayed collection is bit-identical (Checksum-equal) to the
// pre-crash one. It must run after the corpus is loaded and BEFORE
// indexes are loaded or mined: logged batches may intern vocabulary
// the indexes reference, and a bundle load against the shorter
// pre-replay collection would reject it.
//
// Each frame's recorded base document count must match the collection
// exactly — a mismatch means the log belongs to a different corpus (or
// replay ran twice) and is a hard error: appending anyway would assign
// the wrong document IDs to every replayed document. The one exception
// is a batch whose documents the collection provably already holds in
// full (its recorded base plus its own length is at most the corpus's
// load-time size): a save with WithWALPrune absorbed it into the corpus
// file but crashed before the prune deleted its segment, and replaying
// the duplicate would corrupt the collection — it is skipped instead
// (ReplayResult.Skipped).
func (c *Collection) ReplayWAL(ctx context.Context, w *WAL) (ReplayResult, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return ReplayResult{}, err
	}
	if w.attached {
		return ReplayResult{}, errors.New("stburst: wal is already attached to a store")
	}
	if w.replayCol != nil {
		return ReplayResult{}, errors.New("stburst: wal was already replayed")
	}
	var res ReplayResult
	for _, b := range w.pending {
		if have := uint64(c.col.NumDocs()); b.BaseDocs+uint64(len(b.Docs)) <= have && len(b.Docs) > 0 {
			// Fully absorbed into the corpus by a pre-crash prune: the
			// loaded collection already holds these documents, mined into
			// the bundle saved alongside the absorption.
			res.Skipped++
			continue
		}
		if uint64(c.col.NumDocs()) != b.BaseDocs {
			return res, fmt.Errorf(
				"stburst: wal batch %d was logged at document count %d but the collection holds %d — the log belongs to a different corpus",
				b.Seq, b.BaseDocs, c.col.NumDocs())
		}
		_, dirty, err := c.col.Append(b.Docs)
		if err != nil {
			return res, fmt.Errorf("stburst: replaying wal batch %d: %w", b.Seq, err)
		}
		w.replayed = append(w.replayed, replayedBatch{seq: b.Seq, preGen: b.PreGen, dirty: dirty})
		res.Batches++
		res.Docs += len(b.Docs)
	}
	w.replayCol = c.col
	w.docs = res.Docs
	w.pending = nil
	return res, nil
}

// AttachResult reports one AttachWAL: what the replay had re-appended,
// what the attach re-mined, and the restored generation.
type AttachResult struct {
	// Batches and Docs echo the replay that preceded the attach.
	Batches int
	Docs    int
	// DirtyTerms is the number of distinct terms re-mined — only those
	// from batches the loaded indexes had not yet absorbed (a batch
	// logged before the bundle's generation is already mined into it).
	DirtyTerms int
	// Generation is the store generation after the attach: the
	// pre-crash generation, restored.
	Generation uint64
}

// WALStats is a point-in-time summary of a store's attached log.
type WALStats = wal.Stats

// AttachWAL completes recovery and arms logging: it re-mines the dirty
// terms of every replayed batch the resident indexes have not absorbed
// (those logged at or after the loaded bundle's generation — earlier
// batches were already mined into it), restores the pre-crash
// generation, and attaches the log so every subsequent Ingest logs
// before it applies. Call it after ReplayWAL and after the store's
// indexes are loaded or mined.
//
// The context is checked once, before anything applies: a cancelled
// context refuses the attach and leaves the store and log untouched,
// while an attach past that check runs its re-mine to completion.
//
// On a fresh log with nothing pending, AttachWAL may be called without
// a ReplayWAL (there was nothing to replay).
func (s *Store) AttachWAL(ctx context.Context, w *WAL) (AttachResult, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if err := ctx.Err(); err != nil {
		return AttachResult{}, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.attached {
		return AttachResult{}, errors.New("stburst: wal is already attached to a store")
	}
	if len(w.pending) > 0 {
		return AttachResult{}, errors.New("stburst: wal holds unreplayed batches; call Collection.ReplayWAL before loading or mining the store's indexes")
	}
	if w.replayCol != nil && w.replayCol != s.c.col {
		return AttachResult{}, errors.New("stburst: wal was replayed into a different collection than the store's")
	}
	if w.l == nil {
		return AttachResult{}, errors.New("stburst: wal is closed")
	}
	if s.wal.Load() != nil {
		return AttachResult{}, errors.New("stburst: store already has a wal attached")
	}

	loadedGen := s.Generation()
	res := AttachResult{Batches: len(w.replayed), Docs: w.docs}
	dirtySet := make(map[int]struct{})
	var lastPre uint64
	for _, b := range w.replayed {
		lastPre = b.preGen
		if b.preGen >= loadedGen {
			for _, t := range b.dirty {
				dirtySet[t] = struct{}{}
			}
		}
	}
	if len(dirtySet) > 0 {
		dirty := make([]int, 0, len(dirtySet))
		for t := range dirtySet {
			dirty = append(dirty, t)
		}
		sort.Ints(dirty)
		// Past the context check above the attach runs to completion, as
		// an Ingest past its commit point does.
		s.refreshLocked(ctx, s.indexes.Load(), dirty)
		res.DirtyTerms = len(dirty)
	}
	// Restore the pre-crash generation: every logged batch bumped it by
	// one past its recorded pre-batch value, so the last batch pins it
	// exactly. The refresh above may have bumped it part of the way;
	// generations only ever move forward.
	if len(w.replayed) > 0 {
		if target := lastPre + 1; target > s.Generation() {
			s.gen.Store(target)
		}
	}
	w.attached = true
	s.walPrune = w.prunePath
	s.wal.Store(w.l)
	res.Generation = s.Generation()
	return res, nil
}

// WALStats returns a summary of the attached write-ahead log, and
// false when none is attached. It never blocks behind an in-flight
// ingest, so metric scrapes stay fast.
func (s *Store) WALStats() (WALStats, bool) {
	l := s.wal.Load()
	if l == nil {
		return WALStats{}, false
	}
	return l.Stats(), true
}
