package connector

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// feedLine renders one doc line the way stgen/corpusio would.
func feedLine(stream string, tm, event int) string {
	raw, _ := json.Marshal(Doc{Stream: stream, Time: tm, Counts: map[string]int{"quake": 2, "fire": 1}, Event: event})
	return string(raw) + "\n"
}

const feedHeaderLine = `{"kind":"topix","streams":["lima","oslo"],"timeline":52}` + "\n"

// startTail runs a TailSource over sink until the returned stop func
// is called (waits for Run to return) — cancellation mid-stream is the
// in-test stand-in for a crash, since nothing after the last durable
// flush survives in either case.
func startTail(t *testing.T, path string, sink Sink) (src *TailSource, stop func() error) {
	t.Helper()
	src = NewTailSource(TailConfig{Path: path}, sink)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- src.Run(ctx) }()
	return src, func() error {
		cancel()
		select {
		case err := <-errc:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("tail Run did not return after cancel")
			return nil
		}
	}
}

func appendFile(t *testing.T, path, body string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(body); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTailFollowsGrowingFile(t *testing.T) {
	path := t.TempDir() + "/feed.jsonl"
	appendFile(t, path, feedHeaderLine+feedLine("lima", 0, 0))
	sink := &memSink{base: 10}
	src, stop := startTail(t, path, sink)

	waitFor(t, func() bool { return sink.Docs() == 11 })
	// Grow the file after the tailer reached EOF, including a torn
	// write: the partial line must sit unconsumed until its newline
	// arrives.
	appendFile(t, path, feedLine("oslo", 1, 0))
	half := feedLine("lima", 2, 1)
	appendFile(t, path, half[:len(half)/2])
	waitFor(t, func() bool { return sink.Docs() == 12 })
	time.Sleep(2 * pollInterval) // polls with the torn line pending
	if got := sink.Docs(); got != 12 {
		t.Fatalf("torn line was ingested early: docs=%d", got)
	}
	appendFile(t, path, half[len(half)/2:])
	waitFor(t, func() bool { return sink.Docs() == 13 })

	docs := sink.applied()
	if docs[2].Stream != "lima" || docs[2].Time != 2 || docs[2].Counts["quake"] != 2 {
		t.Fatalf("reassembled doc = %+v", docs[2])
	}
	// Lag refreshes on the poll tick; once the tailer is caught up it
	// must settle at zero.
	waitFor(t, func() bool { return src.Stats().Lag == 0 })
	if err := stop(); err != nil && err != context.Canceled {
		t.Fatalf("stop: %v", err)
	}
}

func TestTailResumeNoLossNoDup(t *testing.T) {
	// The core crash-recovery property over three batchDocs flushes: the
	// first incarnation's sink crashes at document `cut` — inside a
	// flush, leaving it durable but unacknowledged and so not
	// checkpointed, or at a flush boundary, right after a checkpoint —
	// and a second incarnation resumes from the checkpoint. The sink
	// must end with every feed doc exactly once, in order.
	const nDocs = 2*batchDocs + batchDocs/2
	body := feedHeaderLine
	for i := 0; i < nDocs; i++ {
		body += feedLine("lima", i, 0)
	}
	for _, cut := range []int{1, batchDocs - 1, batchDocs, batchDocs + 1, 2 * batchDocs, nDocs - 1} {
		path := fmt.Sprintf("%s/feed-%d.jsonl", t.TempDir(), cut)
		appendFile(t, path, body)
		sink := &memSink{base: 3, cut: cut}
		if err := NewTailSource(TailConfig{Path: path}, sink).Run(context.Background()); !errors.Is(err, errCrash) {
			t.Fatalf("cut=%d: first incarnation returned %v, want the crash", cut, err)
		}
		if got, want := sink.Docs(), 3+(cut+batchDocs-1)/batchDocs*batchDocs; got != min(want, 3+nDocs) {
			t.Fatalf("cut=%d: %d docs applied before the crash, want the flushes up to and including the cut", cut, got-3)
		}

		// Second incarnation finishes the feed.
		sink.cut = 0
		_, stop := startTail(t, path, sink)
		waitFor(t, func() bool { return sink.Docs() == 3+nDocs })
		stop()

		docs := sink.applied()
		if len(docs) != nDocs {
			t.Fatalf("cut=%d: %d docs ingested, want %d", cut, len(docs), nDocs)
		}
		for i, d := range docs {
			if d.Time != i {
				t.Fatalf("cut=%d: doc %d has time %d (lost or duplicated)", cut, i, d.Time)
			}
		}
	}
}

func TestTailResumeAfterCrashBeforeFirstCheckpointFlush(t *testing.T) {
	// A crash after docs were flushed but while the checkpoint file
	// still holds only the startup baseline must still dedupe: the
	// baseline records the pre-ingest store count.
	path := t.TempDir() + "/feed.jsonl"
	appendFile(t, path, feedHeaderLine+feedLine("lima", 0, 0)+feedLine("oslo", 1, 0))
	sink := &memSink{base: 5}

	_, stop := startTail(t, path, sink)
	waitFor(t, func() bool { return sink.Docs() == 7 })
	stop()
	// Roll the checkpoint back to what Run wrote at startup — as if
	// the crash hit after the flush's WAL append but before the
	// post-flush checkpoint rename landed.
	if err := (Checkpoint{Offset: 0, Docs: 5}).Save(path + ".checkpoint"); err != nil {
		t.Fatal(err)
	}

	_, stop2 := startTail(t, path, sink)
	appendFile(t, path, feedLine("lima", 2, 0))
	waitFor(t, func() bool { return sink.Docs() == 8 })
	time.Sleep(20 * time.Millisecond)
	stop2()
	if docs := sink.applied(); len(docs) != 3 {
		t.Fatalf("%d docs ingested, want 3 (dedupe failed)", len(docs))
	}
}

func TestTailTruncationRestartsFromZero(t *testing.T) {
	path := t.TempDir() + "/feed.jsonl"
	appendFile(t, path, feedHeaderLine+feedLine("lima", 0, 0)+feedLine("lima", 1, 0))
	sink := &memSink{}
	src, stop := startTail(t, path, sink)
	waitFor(t, func() bool { return sink.Docs() == 2 })

	// Truncate and rewrite shorter: the tailer must notice, reset, and
	// ingest the new content as new documents.
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	appendFile(t, path, feedHeaderLine+feedLine("oslo", 7, 0))
	waitFor(t, func() bool { return sink.Docs() == 3 })
	stop()

	docs := sink.applied()
	if docs[2].Stream != "oslo" || docs[2].Time != 7 {
		t.Fatalf("post-truncation doc = %+v", docs[2])
	}
	if src.Stats().Errors == 0 {
		t.Fatal("truncation was not counted as an error event")
	}
}

func TestTailRotationFollowsNewFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/feed.jsonl"
	appendFile(t, path, feedHeaderLine+feedLine("lima", 0, 0))
	sink := &memSink{}
	_, stop := startTail(t, path, sink)
	waitFor(t, func() bool { return sink.Docs() == 1 })

	// Rotate: move the old file away, write a fresh one (same size or
	// larger, so only the inode check can catch it).
	if err := os.Rename(path, dir+"/feed.jsonl.1"); err != nil {
		t.Fatal(err)
	}
	appendFile(t, path, feedHeaderLine+feedLine("oslo", 3, 0)+feedLine("oslo", 4, 0))
	waitFor(t, func() bool { return sink.Docs() == 3 })
	stop()
	docs := sink.applied()
	if docs[1].Stream != "oslo" || docs[2].Time != 4 {
		t.Fatalf("post-rotation docs = %+v", docs[1:])
	}
}

func TestTailWaitsForMissingFile(t *testing.T) {
	path := t.TempDir() + "/late.jsonl"
	sink := &memSink{}
	_, stop := startTail(t, path, sink)
	time.Sleep(20 * time.Millisecond)
	appendFile(t, path, feedHeaderLine+feedLine("lima", 0, 0))
	waitFor(t, func() bool { return sink.Docs() == 1 })
	stop()
}

func TestTailSkipsBadLinesAndCountsThem(t *testing.T) {
	path := t.TempDir() + "/feed.jsonl"
	appendFile(t, path, feedHeaderLine+"{this is not json}\n"+feedLine("lima", 0, 0))
	sink := &memSink{}
	src, stop := startTail(t, path, sink)
	waitFor(t, func() bool { return sink.Docs() == 1 })
	stop()
	st := src.Stats()
	if st.Errors != 1 || st.LastError == "" {
		t.Fatalf("stats after bad line = %+v", st)
	}
}

func TestTailOverlongLineResyncs(t *testing.T) {
	path := t.TempDir() + "/feed.jsonl"
	long := bytes.Repeat([]byte{'x'}, 2*maxLineBytes)
	appendFile(t, path, feedHeaderLine+string(long)+"\n"+feedLine("lima", 0, 0))
	sink := &memSink{}
	src, stop := startTail(t, path, sink)
	waitFor(t, func() bool { return sink.Docs() == 1 })
	stop()
	if src.Stats().Errors == 0 {
		t.Fatal("overlong line was not counted")
	}
}

// TestTailOverlongCompleteLineIsSkipped: maxLineBytes holds for a line
// whose newline is already in the file, not only for one the writer has
// not finished — a well-formed but overlong document is skipped, the
// line after it is ingested, and the checkpoint lands past both.
func TestTailOverlongCompleteLineIsSkipped(t *testing.T) {
	path := t.TempDir() + "/feed.jsonl"
	long, _ := json.Marshal(Doc{Stream: "lima", Time: 1, Text: strings.Repeat("flood ", maxLineBytes/6)})
	body := feedHeaderLine + feedLine("lima", 0, 0) + string(long) + "\n" + feedLine("oslo", 2, 0)
	appendFile(t, path, body)
	sink := &memSink{}
	src, stop := startTail(t, path, sink)
	waitFor(t, func() bool { return sink.Docs() == 2 })
	time.Sleep(20 * time.Millisecond) // would catch the overlong document landing late
	stop()

	docs := sink.applied()
	if len(docs) != 2 || docs[0].Time != 0 || docs[1].Time != 2 {
		t.Fatalf("applied docs = %+v, want the lines before and after the overlong one", docs)
	}
	if st := src.Stats(); st.Errors != 1 {
		t.Fatalf("stats = %+v, want the overlong line counted once", st)
	}
	cp, ok, err := LoadCheckpoint(path + ".checkpoint")
	if err != nil || !ok || cp.Offset != int64(len(body)) {
		t.Fatalf("checkpoint = %+v (ok=%v, err=%v), want offset %d past both lines", cp, ok, err, len(body))
	}
}

func TestTailRejectedDocsAdvanceCheckpoint(t *testing.T) {
	// Validation rejects must not wedge the feed: the checkpoint moves
	// past them and a restart does not retry them forever.
	path := t.TempDir() + "/feed.jsonl"
	appendFile(t, path, feedHeaderLine+feedLine("nowhere", 0, 0)+feedLine("lima", 1, 0))
	sink := &memSink{rejectStream: "nowhere"}
	src, stop := startTail(t, path, sink)
	waitFor(t, func() bool { return sink.Docs() == 1 })
	stop()
	if st := src.Stats(); st.Errors != 1 {
		t.Fatalf("rejected doc not counted: %+v", st)
	}

	// Restart: the checkpoint's offset covers the rejected line's
	// bytes (it flushed in the same batch as the applied doc), so the
	// restart never revisits it — and the applied doc must not
	// duplicate.
	sink2 := &memSink{rejectStream: "nowhere", base: sink.Docs()}
	_, stop2 := startTail(t, path, sink2)
	appendFile(t, path, feedLine("oslo", 2, 0))
	waitFor(t, func() bool {
		for _, d := range sink2.applied() {
			if d.Stream == "oslo" {
				return true
			}
		}
		return false
	})
	time.Sleep(20 * time.Millisecond)
	stop2()
	for _, d := range sink2.applied() {
		if d.Stream == "lima" {
			t.Fatal("doc before checkpoint was re-ingested on restart")
		}
	}
}

func TestTailCorruptCheckpointRefusesToRun(t *testing.T) {
	path := t.TempDir() + "/feed.jsonl"
	appendFile(t, path, feedHeaderLine)
	writeFile(t, path+".checkpoint", "garbage")
	src := NewTailSource(TailConfig{Path: path}, &memSink{})
	if err := src.Run(context.Background()); err == nil {
		t.Fatal("Run succeeded over a corrupt checkpoint")
	}
}

func TestTailCheckpointPathDefault(t *testing.T) {
	if got := NewTailSource(TailConfig{Path: "feed.jsonl"}, &memSink{}).CheckpointPath(); got != "feed.jsonl.checkpoint" {
		t.Errorf("default checkpoint path = %q, want feed.jsonl.checkpoint", got)
	}
	if got := NewTailSource(TailConfig{Path: "feed.jsonl", CheckpointPath: "ck"}, &memSink{}).CheckpointPath(); got != "ck" {
		t.Errorf("configured checkpoint path = %q, want ck", got)
	}
}
