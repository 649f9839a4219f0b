package connector

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"stburst/internal/corpusio"
)

// pollInterval is how long the tailer sleeps at end-of-file before
// re-checking the feed for growth, truncation or rotation, and between
// checks for a feed file that does not exist yet. It is the latency
// floor of a drip feed; each poll costs one stat call.
const pollInterval = 250 * time.Millisecond

// TailConfig configures a tailing-file source.
type TailConfig struct {
	// Path is the JSONL feed file to follow. It may not exist yet;
	// the tailer waits for it.
	Path string
	// CheckpointPath is where resume state is persisted. Defaults to
	// Path + ".checkpoint".
	CheckpointPath string
}

// TailSource follows a growing JSONL corpus file — the `stserve -tail`
// connector. It understands the corpusio file shape (an optional
// header line followed by one document per line), survives truncation
// and rotation of the feed file, and persists a byte-offset checkpoint
// after every durable flush so a restart resumes without loss or
// duplication (see Checkpoint for the dedupe arithmetic).
type TailSource struct {
	cfg  TailConfig
	sink Sink
	tracker
}

// NewTailSource builds a tailer over sink. Run does all the work.
func NewTailSource(cfg TailConfig, sink Sink) *TailSource {
	if cfg.CheckpointPath == "" {
		cfg.CheckpointPath = cfg.Path + ".checkpoint"
	}
	t := &TailSource{cfg: cfg, sink: sink}
	t.conns.Store(-1) // not a socket
	return t
}

func (t *TailSource) Name() string { return "tail:" + t.cfg.Path }

// CheckpointPath returns where the tailer persists its resume state:
// TailConfig.CheckpointPath, or its default.
func (t *TailSource) CheckpointPath() string { return t.cfg.CheckpointPath }

// Stats implements Source.
func (t *TailSource) Stats() SourceStats { return t.snapshot(t.Name()) }

// Run tails the feed until ctx is cancelled. The loop is: read full
// lines, skip the header and any documents the resume arithmetic says
// are already applied, batch the rest, flush through the sink at
// batchDocs or end-of-file, checkpoint after every flush. At
// end-of-file it watches for growth, truncation (size shrank below the
// read position) and rotation (a new inode under the same name);
// either reset restarts the file from offset zero with a fresh
// checkpoint baseline.
func (t *TailSource) Run(ctx context.Context) error {
	cp, ok, err := LoadCheckpoint(t.cfg.CheckpointPath)
	if err != nil {
		return err
	}
	skip := 0
	if ok {
		if d := t.sink.Docs() - cp.Docs; d > 0 {
			skip = d
		}
	} else {
		// First run (or the operator deleted the checkpoint): record
		// the store's baseline count *before* ingesting anything, so a
		// crash after the first flush but before the first post-flush
		// checkpoint still dedupes on the next boot.
		cp = Checkpoint{Offset: 0, Docs: t.sink.Docs()}
		if err := cp.Save(t.cfg.CheckpointPath); err != nil {
			return err
		}
	}

	f, err := t.open(ctx, &cp, &skip)
	if err != nil {
		return err
	}
	defer func() { f.Close() }()

	lr := &lineReader{r: bufio.NewReaderSize(f, 64<<10), max: maxLineBytes, off: cp.Offset}
	var batchEnd int64 // offset just past the last line in the batch
	b := &batcher{
		sink:  t.sink,
		stats: &t.tracker,
		where: func() string { return fmt.Sprintf("offset %d", lr.start) },
		flushed: func(res SinkResult) error {
			cp = Checkpoint{Offset: batchEnd, Docs: res.Total}
			if err := cp.Save(t.cfg.CheckpointPath); err != nil {
				return err
			}
			// A flush that drained after shutdown began ends the run
			// here, not after the rest of the backlog.
			return ctx.Err()
		},
	}

	for {
		line, err := lr.next()
		switch err {
		case nil:
			if lr.start == 0 {
				// The corpusio header: a first line that parses with a
				// non-empty kind is metadata, not a document.
				var h corpusio.Header
				if json.Unmarshal(line, &h) == nil && h.Kind != "" {
					continue
				}
			}
			if len(line) <= 1 {
				continue // blank line
			}
			d, ok := b.decode(line)
			if !ok {
				continue
			}
			if skip > 0 {
				// Already applied before the last crash; advance the
				// checkpoint bookkeeping without re-ingesting.
				skip--
				cp = Checkpoint{Offset: lr.off, Docs: cp.Docs + 1}
				if skip == 0 {
					if err := cp.Save(t.cfg.CheckpointPath); err != nil {
						return err
					}
				}
				continue
			}
			batchEnd = lr.off
			if err := b.add(ctx, d); err != nil {
				return err
			}
		case errOverlong:
			t.fail(fmt.Sprintf("offset %d: line exceeds %d bytes; skipping to next newline",
				lr.start, maxLineBytes))
		case io.EOF:
			// Drain what we have before sleeping: end-of-file is the
			// flush trigger that keeps a drip feed's latency at one
			// poll interval, not one batch.
			if err := b.flush(ctx); err != nil {
				return err
			}
			reset, err := t.watch(ctx, f, lr.off)
			if err != nil {
				return err
			}
			if reset {
				// Truncated or rotated: everything we know about the
				// old byte stream is void. Reopen at zero and
				// re-baseline the checkpoint at the store's current
				// count — the new file's lines are all new documents.
				f.Close()
				cp = Checkpoint{Offset: 0, Docs: t.sink.Docs()}
				if err := cp.Save(t.cfg.CheckpointPath); err != nil {
					return err
				}
				skipZero := 0
				f, err = t.open(ctx, &cp, &skipZero)
				if err != nil {
					return err
				}
				lr.reset(f, 0)
			}
		default:
			return fmt.Errorf("tail %s: %w", t.cfg.Path, err)
		}
	}
}

// open opens the feed at cp.Offset, waiting (ctx-aware) for the file
// to exist. If the file is shorter than the checkpointed offset the
// feed was truncated while the tailer was down: the checkpoint is
// re-baselined to a fresh file exactly as a live truncation would.
func (t *TailSource) open(ctx context.Context, cp *Checkpoint, skip *int) (*os.File, error) {
	for {
		f, err := os.Open(t.cfg.Path)
		if err == nil {
			st, err := f.Stat()
			if err != nil {
				f.Close()
				return nil, err
			}
			if st.Size() < cp.Offset {
				t.fail(fmt.Sprintf("feed truncated while down (size %d < checkpoint offset %d); restarting from 0",
					st.Size(), cp.Offset))
				*cp = Checkpoint{Offset: 0, Docs: t.sink.Docs()}
				*skip = 0
				if err := cp.Save(t.cfg.CheckpointPath); err != nil {
					f.Close()
					return nil, err
				}
			}
			if cp.Offset > 0 {
				if _, err := f.Seek(cp.Offset, io.SeekStart); err != nil {
					f.Close()
					return nil, err
				}
			}
			t.updateLag(st.Size(), cp.Offset)
			return f, nil
		}
		if !os.IsNotExist(err) {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(pollInterval):
		}
	}
}

// watch sleeps one poll interval at end-of-file, then reports whether
// the feed must be reopened from scratch (truncated or rotated). A
// missing file keeps the old descriptor — its remaining bytes were
// already drained — and the next poll that finds a new file under the
// path reports rotation.
func (t *TailSource) watch(ctx context.Context, f *os.File, offset int64) (reset bool, err error) {
	select {
	case <-ctx.Done():
		return false, ctx.Err()
	case <-time.After(pollInterval):
	}
	st, err := os.Stat(t.cfg.Path)
	if err != nil {
		if os.IsNotExist(err) {
			t.lag.Store(0)
			return false, nil // deleted; wait for recreation
		}
		return false, err
	}
	if st.Size() < offset {
		t.fail(fmt.Sprintf("feed truncated (size %d < read position %d); restarting from 0", st.Size(), offset))
		return true, nil
	}
	if fst, err := f.Stat(); err == nil && !os.SameFile(fst, st) {
		t.fail("feed rotated (new file under the same name); restarting from 0")
		return true, nil
	}
	t.updateLag(st.Size(), offset)
	return false, nil
}

func (t *TailSource) updateLag(size, offset int64) {
	lag := size - offset
	if lag < 0 {
		lag = 0
	}
	t.lag.Store(lag)
}
