package connector

import (
	"bufio"
	"errors"
	"io"
)

// errOverlong reports a line longer than the reader's limit.
var errOverlong = errors.New("line exceeds the size limit")

// lineReader reads newline-terminated lines of at most max bytes from a
// feed whose every byte is hostile: it never holds more than max bytes
// of a line plus the bufio buffer, however far away (or absent) the next
// newline is. Both sources frame through it — the socket closes the
// connection on errOverlong, the tailer keeps calling and is resynced
// on the line after.
type lineReader struct {
	r   *bufio.Reader
	max int
	// off is the offset of the next unread byte and start that of the
	// current line's first; the tailer checkpoints and reports them.
	off, start int64
	// line is the current line so far, carried across calls when the
	// reader ran dry (io.EOF) mid-line.
	line []byte
	// skipping is set from the moment a line exceeds max until its
	// newline has been consumed.
	skipping bool
}

// next returns the next complete line, terminator included, valid until
// the following call. A line longer than max yields errOverlong once,
// as soon as it exceeds the limit; later calls discard the rest of it
// through its newline and go on to the following line. Any other error
// is the underlying reader's (io.EOF when it ran dry, possibly
// mid-line: what was read is kept and a later call completes the line).
func (lr *lineReader) next() ([]byte, error) {
	if n := len(lr.line); n > 0 && lr.line[n-1] == '\n' {
		lr.line = lr.line[:0] // the previous call returned it
	}
	if len(lr.line) == 0 && !lr.skipping {
		lr.start = lr.off
	}
	for {
		chunk, err := lr.r.ReadSlice('\n')
		lr.off += int64(len(chunk))
		switch {
		case lr.skipping:
			if err == nil { // consumed the overlong line's newline
				lr.skipping, lr.start = false, lr.off
				continue
			}
		case len(lr.line)+len(chunk) > lr.max:
			lr.line = lr.line[:0]
			lr.skipping = err != nil // else this chunk ended the line
			return nil, errOverlong
		default:
			if n := len(lr.line) + len(chunk); n > cap(lr.line) {
				// Grow by hand: append's growth would overshoot max. A
				// line that outgrew the bufio buffer takes the whole
				// allowance once instead of regrowing toward it.
				c := min(2*n, lr.max)
				if err == bufio.ErrBufferFull {
					c = lr.max
				}
				lr.line = append(make([]byte, 0, c), lr.line...)
			}
			lr.line = append(lr.line, chunk...)
			if err == nil {
				return lr.line, nil
			}
		}
		if err != bufio.ErrBufferFull {
			return nil, err
		}
	}
}

// reset points the reader at a new byte stream starting at offset off,
// dropping any partial line.
func (lr *lineReader) reset(r io.Reader, off int64) {
	lr.r.Reset(r)
	lr.off, lr.line, lr.skipping = off, lr.line[:0], false
}
