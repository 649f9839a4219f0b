package connector

import (
	"bufio"
	"bytes"
	"io"
	"slices"
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

// FuzzLineReader checks the framing against bytes.SplitAfter: every
// line of at most max bytes (terminator included) comes back exactly,
// a longer one yields errOverlong once and the reader resyncs after its
// newline, and the held line never outgrows max, so the reader holds at
// most max plus its bufio buffer (64 KiB in both sources).
// The input reaches the reader in two parts, as a tailed file does when
// the writer is mid-line, so a line cut by end-of-input must be
// completed by the next part.
func FuzzLineReader(f *testing.F) {
	f.Add([]byte("short\n"+strings.Repeat("b", 41)+"\ntail"), uint16(40), uint16(16), uint16(9))
	f.Add([]byte(strings.Repeat("c", 400)+"\nx\n\n"), uint16(40), uint16(16), uint16(200))
	f.Add([]byte("a\nbb\nccc"), uint16(2), uint16(0), uint16(7))
	f.Fuzz(func(t *testing.T, data []byte, limit, size, cut uint16) {
		max := 1 + int(limit)%512
		bufSize := 16 + int(size)%(64<<10-15) // bufio's minimum up to 64 KiB
		split := int(cut) % (len(data) + 1)

		var want []string // "" stands for errOverlong
		for _, piece := range bytes.SplitAfter(data, []byte("\n")) {
			switch {
			case len(piece) > max:
				want = append(want, "")
			case len(piece) > 0 && piece[len(piece)-1] == '\n':
				want = append(want, string(piece))
			}
		}

		lr := &lineReader{r: bufio.NewReaderSize(nil, bufSize), max: max}
		var got []string
		for _, part := range [][]byte{data[:split], data[split:]} {
			lr.r.Reset(bytes.NewReader(part))
			for {
				line, err := lr.next()
				if cap(lr.line) > max {
					t.Fatalf("the line holds %d bytes, limit %d", cap(lr.line), max)
				}
				if err == io.EOF {
					break
				}
				switch err {
				case nil:
					got = append(got, string(line))
				case errOverlong:
					got = append(got, "")
				default:
					t.Fatalf("next: %v", err)
				}
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("max %d, split %d: lines %q, want %q", max, split, got, want)
		}
		if lr.off != int64(len(data)) {
			t.Fatalf("offset = %d, want %d", lr.off, len(data))
		}
	})
}
