package connector

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// memSink is an in-memory Sink for source tests: it appends accepted
// documents to a slice and exposes the running total, mimicking the
// serve layer's store-backed sink closely enough for resume
// arithmetic. base simulates documents that existed before the source
// started (the snapshot corpus). rejectStream drops matching docs as
// validation rejects. cut, when positive, crashes the sink at its
// cut'th applied document in the two ways a crash can land around a
// flush: a call that starts with cut documents applied fails without
// applying, and a call whose batch spans the cut applies it and then
// fails — durable but never acknowledged, so the source cannot
// checkpoint it.
type memSink struct {
	mu           sync.Mutex
	base         int
	docs         []Doc
	rejectStream string
	cut          int
	calls        int
}

var errCrash = errors.New("sink crashed")

func (m *memSink) Ingest(ctx context.Context, docs []Doc) (SinkResult, error) {
	if err := ctx.Err(); err != nil {
		return SinkResult{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls++
	if m.cut > 0 && len(m.docs) >= m.cut {
		return SinkResult{}, errCrash
	}
	var res SinkResult
	for _, d := range docs {
		if m.rejectStream != "" && d.Stream == m.rejectStream {
			res.Rejected++
			continue
		}
		m.docs = append(m.docs, d)
		res.Applied++
	}
	if m.cut > 0 && len(m.docs) > m.cut {
		return SinkResult{}, errCrash
	}
	res.Total = m.base + len(m.docs)
	return res, nil
}

func (m *memSink) Docs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.base + len(m.docs)
}

func (m *memSink) applied() []Doc {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Doc(nil), m.docs...)
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := t.TempDir() + "/feed.checkpoint"
	if _, ok, err := LoadCheckpoint(path); err != nil || ok {
		t.Fatalf("missing checkpoint: ok=%v err=%v, want fresh start", ok, err)
	}
	want := Checkpoint{Offset: 12345, Docs: 67}
	if err := want.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, ok, err := LoadCheckpoint(path)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if got.Offset != want.Offset || got.Docs != want.Docs {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
	// Overwrite must be atomic-rename, not truncate-write.
	next := Checkpoint{Offset: 99999, Docs: 100}
	if err := next.Save(path); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	got, _, _ = LoadCheckpoint(path)
	if got.Offset != 99999 {
		t.Fatalf("after overwrite: got %+v", got)
	}
}

func TestCheckpointCorruptIsHardError(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"garbage.checkpoint":  "not json\n",
		"version.checkpoint":  `{"version":99,"offset":1,"docs":1}`,
		"negative.checkpoint": `{"version":1,"offset":-5,"docs":1}`,
	} {
		path := dir + "/" + name
		writeFile(t, path, body)
		if _, _, err := LoadCheckpoint(path); err == nil {
			t.Errorf("%s: corrupt checkpoint loaded without error", name)
		}
	}
}

// FuzzLoadCheckpoint: any checkpoint file bytes load without panic, a
// present file either loads (version 1, non-negative offset and docs) or
// fails with an error, and a loaded checkpoint written back with Save
// loads back exactly — as does any non-negative (offset, docs) pair.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Add([]byte(`{"version":1,"offset":12345,"docs":67}`+"\n"), int64(5), 3)
	f.Add([]byte(`{"version":2,"offset":1,"docs":1}`), int64(0), 0)
	f.Add([]byte(`{"version":1,"offset":-5,"docs":1}`), int64(-1), 1)
	f.Add([]byte(`{"version":1,"offset":1e30}`), int64(1<<62), -2)
	f.Add([]byte("not json\n"), int64(9), 9)
	f.Fuzz(func(t *testing.T, data []byte, offset int64, docs int) {
		dir := t.TempDir()
		path := dir + "/feed.checkpoint"
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, ok, err := LoadCheckpoint(path)
		if ok != (err == nil) {
			t.Fatalf("present checkpoint %q: ok=%v err=%v", data, ok, err)
		}
		saved := []Checkpoint{{Offset: offset, Docs: docs}}
		if ok {
			if cp.Version != checkpointVersion || cp.Offset < 0 || cp.Docs < 0 {
				t.Fatalf("checkpoint %q loaded as %+v", data, cp)
			}
			saved = append(saved, cp)
		}
		for _, want := range saved {
			if want.Offset < 0 || want.Docs < 0 {
				continue
			}
			out := dir + "/saved.checkpoint"
			if err := want.Save(out); err != nil {
				t.Fatal(err)
			}
			got, ok, err := LoadCheckpoint(out)
			want.Version = checkpointVersion
			if !ok || err != nil || got != want {
				t.Fatalf("Save(%+v) loaded back %+v ok=%v err=%v", want, got, ok, err)
			}
		}
	})
}

// flappySource fails a fixed number of runs before running clean, for
// supervisor restart tests.
type flappySource struct {
	name     string
	failures int
	mu       sync.Mutex
	runs     int
	ran      chan struct{} // receives one token per Run invocation
}

func (f *flappySource) Name() string       { return f.name }
func (f *flappySource) Stats() SourceStats { return SourceStats{Name: f.name, Lag: -1, Conns: -1} }

func (f *flappySource) Run(ctx context.Context) error {
	f.mu.Lock()
	f.runs++
	n := f.runs
	f.mu.Unlock()
	if f.ran != nil {
		f.ran <- struct{}{}
	}
	if n <= f.failures {
		return errors.New("synthetic failure")
	}
	<-ctx.Done()
	return ctx.Err()
}

// TestSupervisorRestartsWithBackoff: a source that fails three times is
// restarted after backoffBase, then twice that, then four times that,
// and its fourth run keeps running. The waits are read from the restart
// log lines.
func TestSupervisorRestartsWithBackoff(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	src := &flappySource{name: "flappy", failures: 3, ran: make(chan struct{}, 8)}
	sup := NewSupervisor()
	sup.Add(src)
	if got := sup.StatAt(0).State; got != StateIdle {
		t.Fatalf("pre-start state = %q, want %q", got, StateIdle)
	}
	sup.Start(context.Background())
	// Four Run invocations: three failures, then the clean run that
	// blocks until Stop.
	for i := 0; i < 4; i++ {
		select {
		case <-src.ran:
		case <-time.After(5 * time.Second):
			t.Fatalf("run %d never started (restarts=%d)", i+1, sup.StatAt(0).Restarts)
		}
	}
	waitFor(t, func() bool { return sup.StatAt(0).State == StateRunning })
	if got := sup.StatAt(0).Restarts; got != 3 {
		t.Fatalf("restarts = %d, want 3", got)
	}
	sup.Stop()
	if got := sup.StatAt(0).State; got != StateStopped {
		t.Fatalf("post-stop state = %q, want %q", got, StateStopped)
	}
	for _, wait := range []time.Duration{backoffBase, 2 * backoffBase, 4 * backoffBase} {
		if line := fmt.Sprintf("connector flappy: synthetic failure; restarting in %s\n", wait); !strings.Contains(logged.String(), line) {
			t.Errorf("restart log %q lacks %q", logged.String(), line)
		}
	}
}

func TestSupervisorCleanExitStopsSupervision(t *testing.T) {
	src := &flappySource{name: "oneshot", failures: 0, ran: make(chan struct{}, 2)}
	sup := NewSupervisor()
	sup.Add(src)
	ctx, cancel := context.WithCancel(context.Background())
	sup.Start(ctx)
	<-src.ran
	cancel() // the clean run returns ctx.Err(); no restart must follow
	waitFor(t, func() bool { return sup.StatAt(0).State == StateStopped })
	if got := sup.StatAt(0).Restarts; got != 0 {
		t.Fatalf("restarts after clean exit = %d, want 0", got)
	}
	sup.Stop()
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}

func writeFile(t *testing.T, path, body string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}
