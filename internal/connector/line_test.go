package connector

import (
	"bufio"
	"io"
	"strings"
	"testing"
)

// TestLineReader walks the framing edge cases both sources rely on: a
// line of exactly max bytes passes, one byte more is reported once and
// skipped through its newline (however many buffers away), and a line
// cut by end-of-input is completed by a later call.
func TestLineReader(t *testing.T) {
	const max = 40
	feed := "short\n" +
		strings.Repeat("a", max-1) + "\n" + // exactly max with its newline
		strings.Repeat("b", max) + "\n" + // one over
		strings.Repeat("c", 10*max) + "\n" + // many buffers over
		"tail"
	lr := &lineReader{r: bufio.NewReaderSize(strings.NewReader(feed), 16), max: max}

	want := []struct {
		line  string
		err   error
		start int64
	}{
		{"short\n", nil, 0},
		{strings.Repeat("a", max-1) + "\n", nil, 6},
		{"", errOverlong, 6 + max},
		{"", errOverlong, 6 + 2*max + 1},
		{"", io.EOF, 6 + 2*max + 1 + 10*max + 1},
	}
	for i, w := range want {
		line, err := lr.next()
		if string(line) != w.line || err != w.err || lr.start != w.start {
			t.Fatalf("call %d: next = %q, %v at start %d; want %q, %v at start %d",
				i, line, err, lr.start, w.line, w.err, w.start)
		}
		if cap(lr.line) > 2*max {
			t.Fatalf("call %d: the reader holds %d bytes, limit %d", i, cap(lr.line), max)
		}
	}
	if lr.off != int64(len(feed)) {
		t.Fatalf("offset = %d, want %d", lr.off, len(feed))
	}

	// The writer finishes the torn line: the next call returns it whole.
	lr.r.Reset(strings.NewReader(" end\n"))
	if line, err := lr.next(); string(line) != "tail end\n" || err != nil {
		t.Fatalf("completed line = %q, %v", line, err)
	}
}
