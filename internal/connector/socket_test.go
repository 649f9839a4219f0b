package connector

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// startSocket runs a SocketSource on a free port and returns its
// address plus a stop func that cancels and waits for Run.
func startSocket(t *testing.T, sink Sink) (src *SocketSource, addr string, stop func()) {
	t.Helper()
	src = NewSocketSource(SocketConfig{Addr: "127.0.0.1:0"}, sink)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- src.Run(ctx) }()
	bctx, bcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer bcancel()
	a, err := src.WaitBound(bctx)
	if err != nil {
		t.Fatalf("listener never bound: %v", err)
	}
	return src, a.String(), func() {
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Errorf("socket Run: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("socket Run did not return after cancel")
		}
	}
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

func sendLine(t *testing.T, conn net.Conn, d Doc) {
	t.Helper()
	raw, _ := json.Marshal(d)
	if _, err := conn.Write(append(raw, '\n')); err != nil {
		t.Fatal(err)
	}
}

func TestSocketLineFraming(t *testing.T) {
	sink := &memSink{}
	_, addr, stop := startSocket(t, sink)
	defer stop()

	conn := dial(t, addr)
	sendLine(t, conn, Doc{Stream: "lima", Time: 1, Tokens: []string{"quake"}})
	sendLine(t, conn, Doc{Stream: "oslo", Time: 2, Tokens: []string{"fire"}})
	waitFor(t, func() bool { return sink.Docs() == 2 })

	// A final unterminated line lands via the disconnect flush.
	raw, _ := json.Marshal(Doc{Stream: "lima", Time: 3})
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitFor(t, func() bool { return sink.Docs() == 3 })
	docs := sink.applied()
	if docs[0].Stream != "lima" || docs[1].Stream != "oslo" || docs[2].Time != 3 {
		t.Fatalf("applied docs = %+v", docs)
	}
}

func TestSocketIdleFlush(t *testing.T) {
	sink := &memSink{}
	_, addr, stop := startSocket(t, sink)
	defer stop()
	conn := dial(t, addr)
	defer conn.Close()
	sendLine(t, conn, Doc{Stream: "lima", Time: 1})
	// Far below batchDocs, and the connection stays open: only the
	// flush before the next socket read can deliver it.
	waitFor(t, func() bool { return sink.Docs() == 1 })
}

// TestSocketOversizeFrameClosesConnection: a complete line past
// maxLineBytes closes its connection with one error counted. The
// document before it is still delivered; the one after it is not, since
// a stream that broke its framing is not read any further.
func TestSocketOversizeFrameClosesConnection(t *testing.T) {
	sink := &memSink{}
	src, addr, stop := startSocket(t, sink)
	defer stop()
	conn := dial(t, addr)
	defer conn.Close()
	var payload []byte
	for _, d := range []Doc{
		{Stream: "lima", Time: 1},
		{Stream: "lima", Time: 2, Text: strings.Repeat("x", maxLineBytes)},
		{Stream: "oslo", Time: 3},
	} {
		raw, _ := json.Marshal(d)
		payload = append(append(payload, raw...), '\n')
	}
	go conn.Write(payload) // fails once the server hangs up; that is the point
	waitFor(t, func() bool { return src.Stats().Errors >= 1 })
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection still open after an overlong line")
	}
	waitFor(t, func() bool { return src.Stats().Conns == 0 })
	if st, docs := src.Stats(), sink.applied(); st.Errors != 1 || len(docs) != 1 || docs[0].Time != 1 {
		t.Fatalf("stats = %+v with docs %+v, want one error and only the document before the overlong line", st, docs)
	}
}

// TestSocketUnterminatedLineIsBounded: a peer that streams bytes and
// never sends a newline must cost the listener at most one frame of
// memory — the connection is closed and one error counted as soon as
// the line passes maxLineBytes, not once the peer relents.
func TestSocketUnterminatedLineIsBounded(t *testing.T) {
	sink := &memSink{}
	src, addr, stop := startSocket(t, sink)
	defer stop()
	const limit = maxLineBytes
	payload := bytes.Repeat([]byte{'x'}, 8*limit)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	conn := dial(t, addr)
	defer conn.Close()
	go conn.Write(payload) // fails once the server hangs up; that is the point
	waitFor(t, func() bool { return src.Stats().Errors > 0 })
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection still open after an overlong line")
	}
	runtime.ReadMemStats(&after)
	if st := src.Stats(); st.Errors != 1 || sink.Docs() != 0 {
		t.Fatalf("stats = %+v with %d docs, want exactly one error and no documents", st, sink.Docs())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2*limit {
		t.Fatalf("reading an unterminated line allocated %d bytes, want under %d", grew, 2*limit)
	}
}

func TestSocketBadDocCountedGoodDocsFlow(t *testing.T) {
	sink := &memSink{}
	src, addr, stop := startSocket(t, sink)
	defer stop()
	conn := dial(t, addr)
	defer conn.Close()
	if _, err := conn.Write([]byte("{broken json\n")); err != nil {
		t.Fatal(err)
	}
	sendLine(t, conn, Doc{Stream: "lima", Time: 9})
	waitFor(t, func() bool { return sink.Docs() == 1 })
	if st := src.Stats(); st.Errors != 1 || st.LastError == "" {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSocketConnLimit: with maxConns connections open, the next one is
// closed at once and counted, and the open ones keep working.
func TestSocketConnLimit(t *testing.T) {
	sink := &memSink{}
	src, addr, stop := startSocket(t, sink)
	defer stop()
	open := make([]net.Conn, maxConns)
	for i := range open {
		open[i] = dial(t, addr)
		defer open[i].Close()
	}
	waitFor(t, func() bool { return src.Stats().Conns == maxConns })
	keep := open[maxConns-1]

	over := dial(t, addr)
	defer over.Close()
	over.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := over.Read(buf); err == nil {
		t.Fatal("over-limit connection was not closed")
	}
	if st := src.Stats(); st.Errors == 0 {
		t.Fatalf("refused connection not counted: %+v", st)
	}
	// The accepted connection still works.
	sendLine(t, keep, Doc{Stream: "lima", Time: 1})
	waitFor(t, func() bool { return sink.Docs() == 1 })
}

// shutdownSink starts the source's shutdown from inside its first
// Ingest, after that batch has applied.
type shutdownSink struct {
	*memSink
	once   sync.Once
	cancel context.CancelFunc
}

func (k *shutdownSink) Ingest(ctx context.Context, docs []Doc) (SinkResult, error) {
	res, err := k.memSink.Ingest(ctx, docs)
	k.once.Do(k.cancel)
	return res, err
}

// TestSocketShutdownDrainsBufferedDocs: a document decoded before
// shutdown but not yet flushed still lands. batchDocs+1 documents arrive
// in one write; the full batch's sink call starts the shutdown, so the
// last sits in the batch after the run context is done, and only the
// drain flush can deliver it.
func TestSocketShutdownDrainsBufferedDocs(t *testing.T) {
	sink := &memSink{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := NewSocketSource(SocketConfig{Addr: "127.0.0.1:0"}, &shutdownSink{memSink: sink, cancel: cancel})
	errc := make(chan error, 1)
	go func() { errc <- src.Run(ctx) }()
	bctx, bcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer bcancel()
	a, err := src.WaitBound(bctx)
	if err != nil {
		t.Fatalf("listener never bound: %v", err)
	}
	conn := dial(t, a.String())
	defer conn.Close()
	var burst []byte
	for i := range batchDocs + 1 {
		raw, _ := json.Marshal(Doc{Stream: "lima", Time: i})
		burst = append(append(burst, raw...), '\n')
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("socket Run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("socket Run did not return after shutdown")
	}
	if got := sink.Docs(); got != batchDocs+1 {
		t.Fatalf("docs after shutdown drain = %d, want %d", got, batchDocs+1)
	}
}

// TestSocketBurstBatches: a burst written at once is cut at batchDocs,
// not into one sink call per document — a partial batch goes only when
// the buffered frames run out, which a burst does a handful of times.
func TestSocketBurstBatches(t *testing.T) {
	const n, batch = 10 * batchDocs, batchDocs
	sink := &memSink{}
	_, addr, stop := startSocket(t, sink)
	defer stop()
	conn := dial(t, addr)
	defer conn.Close()
	var burst []byte
	for i := range n {
		raw, _ := json.Marshal(Doc{Stream: "lima", Time: i % 48})
		burst = append(append(burst, raw...), '\n')
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sink.Docs() == n })
	sink.mu.Lock()
	calls := sink.calls
	sink.mu.Unlock()
	if want := (n + batch - 1) / batch; calls < want || calls > 2*want {
		t.Fatalf("%d documents took %d sink calls, want between %d and %d", n, calls, want, 2*want)
	}
}

// socketFramesModel cuts data into frames the way the socket framing
// is specified, without its reader: a frame is a newline-split piece of
// at most max bytes with its line ending trimmed. The first piece that
// breaks the limit ends the connection.
func socketFramesModel(data []byte, max int) [][]byte {
	var frames [][]byte
	for _, piece := range bytes.SplitAfter(data, []byte("\n")) {
		if len(piece) > max {
			break
		}
		if len(piece) > 0 {
			frames = append(frames, trimNL(piece))
		}
	}
	return frames
}

// FuzzSocketFrames sends arbitrary bytes on one connection. The frame
// reader, at a fuzzed line limit, must return exactly the model's
// frames — so none longer than the limit. The same bytes sent through a
// real connection (net.Pipe into serveConn, at maxLineBytes) must
// deliver exactly the model frames that decode as documents, in order,
// without a panic.
func FuzzSocketFrames(f *testing.F) {
	f.Add([]byte(`{"stream":"lima","time":1}`+"\n\n{broken\r\n"+`{"time":2}`), uint16(64))
	f.Add([]byte(strings.Repeat("x", 300)+"\n"+`{"stream":"oslo"}`+"\n"), uint16(40))
	f.Add([]byte(`{"stream":"lima"}`+"\r\n"+`null`+"\n"+`{"stream":"oslo","time":3}`), uint16(17))
	f.Add([]byte(`{"stream":"lima","time":1}`+"\n"+strings.Repeat("y", 70)), uint16(32))
	f.Add([]byte("\n\n\r\n"+`{"stream":"oslo","counts":{"fire":2}}`+"\n"), uint16(255))
	f.Fuzz(func(t *testing.T, data []byte, limit uint16) {
		max := 1 + int(limit)%256
		want := socketFramesModel(data, max)
		lr := &lineReader{r: bufio.NewReaderSize(bytes.NewReader(data), 16), max: max}
		var got [][]byte
		for {
			frame, err := readFrame(lr)
			if err != nil {
				break
			}
			if len(frame) > max {
				t.Fatalf("decoded a %d-byte frame past the %d-byte limit", len(frame), max)
			}
			got = append(got, bytes.Clone(frame))
		}
		if len(got) != len(want) {
			t.Fatalf("read %d frames, model %d:\n got %q\nwant %q", len(got), len(want), got, want)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d = %q, model %q", i, got[i], want[i])
			}
		}

		var wantDocs []Doc
		for _, frame := range socketFramesModel(data, maxLineBytes) {
			var d Doc
			if len(frame) > 0 && json.Unmarshal(frame, &d) == nil {
				wantDocs = append(wantDocs, d)
			}
		}
		sink := &memSink{}
		src := NewSocketSource(SocketConfig{}, sink)
		client, server := net.Pipe()
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			client.Write(data) // fails once serveConn hangs up early
			client.Close()
		}()
		src.serveConn(context.Background(), server)
		server.Close()
		<-wrote
		if docs := sink.applied(); !reflect.DeepEqual(docs, wantDocs) && len(docs)+len(wantDocs) > 0 {
			t.Fatalf("connection delivered %+v, want %+v", docs, wantDocs)
		}
	})
}
