package corpusio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"unicode/utf8"

	"stburst/internal/stream"
)

// A document line is decoded by hand: json.Unmarshal into DocLine's
// map[string]int, by reflection, was most of a corpus load. The scanner
// reads exactly what encoding/json would read into DocLine — the four
// keys in any order, matched as encoding/json matches field names (the
// exact name, else case-insensitively), any insignificant whitespace,
// every string escape, null for "leave the field unset", and any other
// key skipped as any valid JSON value — and accepts nothing
// encoding/json rejects. It is stricter in one place: a key that names
// one of the four fields may appear once (encoding/json lets the last
// one win). FuzzCorpusLine holds it to encoding/json.

// lineDoc is one decoded document line: DocLine's fields with the counts
// as (term, count) pairs in line order. Byte slices alias the line, or a
// decoded copy when a string holds an escape or invalid UTF-8.
type lineDoc struct {
	stream      []byte
	time, event int
	counts      []stream.TermCount
}

// The fields of DocLine, by their JSON names.
const (
	fStream = iota
	fTime
	fCounts
	fEvent
)

var fieldNames = [...][]byte{
	fStream: []byte("stream"),
	fTime:   []byte("time"),
	fCounts: []byte("counts"),
	fEvent:  []byte("event"),
}

// maxDepth is encoding/json's nesting limit for arrays and objects.
const maxDepth = 10000

// scanDoc decodes one document line, appending its counts to
// counts[:0] so one slice serves every line of a load.
func scanDoc(line []byte, counts []stream.TermCount) (lineDoc, error) {
	s := lineScanner{b: line}
	d := lineDoc{counts: counts[:0]}
	var seen [len(fieldNames)]bool
	err := s.object(func(key []byte) error {
		f := field(key)
		if f < 0 {
			return s.skip(2)
		}
		if seen[f] {
			return fmt.Errorf("key %q repeated", key)
		}
		seen[f] = true
		if s.literal("null") {
			return nil
		}
		var err error
		switch f {
		case fStream:
			d.stream, err = s.str()
		case fTime:
			d.time, err = s.integer()
		case fEvent:
			d.event, err = s.integer()
		case fCounts:
			err = s.object(func(term []byte) error {
				n, err := s.integer()
				d.counts = append(d.counts, stream.TermCount{Term: term, Count: n})
				return err
			})
		}
		return err
	})
	if s.peek(); err == nil && s.i < len(s.b) {
		err = s.fail("after the document")
	}
	return d, err
}

// field returns the DocLine field a key sets, or -1: the exact name
// first, then a case-insensitive match (bytes.EqualFold), as
// encoding/json matches names.
func field(key []byte) int {
	for f, name := range fieldNames {
		if bytes.Equal(key, name) {
			return f
		}
	}
	for f, name := range fieldNames {
		if bytes.EqualFold(key, name) {
			return f
		}
	}
	return -1
}

// lineScanner reads JSON values from one line.
type lineScanner struct {
	b []byte
	i int
}

// peek skips whitespace and returns the next byte, or 0 at the end (a
// NUL byte, invalid outside a string, reads as no byte at all).
func (s *lineScanner) peek() byte {
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// fail reports the byte the scanner stands at.
func (s *lineScanner) fail(context string) error {
	if s.i >= len(s.b) {
		return errors.New("unexpected end of line")
	}
	return fmt.Errorf("invalid character %q at offset %d %s", s.b[s.i], s.i, context)
}

func (s *lineScanner) expect(c byte, context string) error {
	if s.peek() != c {
		return s.fail(context)
	}
	s.i++
	return nil
}

// literal consumes lit (true, false or null) when it comes next.
func (s *lineScanner) literal(lit string) bool {
	s.peek()
	if !bytes.HasPrefix(s.b[s.i:], []byte(lit)) {
		return false
	}
	s.i += len(lit)
	return true
}

// object reads an object, calling member with each decoded key once the
// scanner stands at the key's value, which member must consume.
func (s *lineScanner) object(member func(key []byte) error) error {
	if err := s.expect('{', "looking for an object"); err != nil {
		return err
	}
	if s.peek() == '}' {
		s.i++
		return nil
	}
	for {
		key, err := s.str()
		if err != nil {
			return err
		}
		if err := s.expect(':', "after an object key"); err != nil {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.i++
		case '}':
			s.i++
			return nil
		default:
			return s.fail("after an object member")
		}
	}
}

// str reads a string. Without an escape and in valid UTF-8 its bytes are
// a slice of the line; otherwise encoding/json decodes it, so escapes,
// surrogates and invalid UTF-8 (replaced by U+FFFD) come out as
// encoding/json has them.
func (s *lineScanner) str() ([]byte, error) {
	if s.peek() != '"' {
		return nil, s.fail("looking for a string")
	}
	start := s.i
	plain, ascii := true, true
	for s.i++; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			raw := s.b[start+1 : s.i-1]
			if plain && (ascii || utf8.Valid(raw)) {
				return raw, nil
			}
			var v string
			if err := json.Unmarshal(s.b[start:s.i], &v); err != nil {
				return nil, err
			}
			return []byte(v), nil
		case c == '\\':
			plain = false
			s.i++ // the escaped byte cannot end the string
		case c < ' ':
			return nil, s.fail("in a string")
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, errors.New("unexpected end of line in a string")
}

// number reads a number and returns its text.
func (s *lineScanner) number() ([]byte, error) {
	s.peek()
	start := s.i
	digits := func() bool {
		n := s.i
		for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
			s.i++
		}
		return s.i > n
	}
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	if s.i < len(s.b) && s.b[s.i] == '0' {
		s.i++
	} else if !digits() {
		return nil, s.fail("looking for a number")
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if !digits() {
			return nil, s.fail("after a decimal point")
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if !digits() {
			return nil, s.fail("in an exponent")
		}
	}
	return s.b[start:s.i], nil
}

// integer reads a number into an int: like encoding/json, it refuses a
// fraction, an exponent and a value past the int range.
func (s *lineScanner) integer() (int, error) {
	lit, err := s.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return 0, fmt.Errorf("number %s is not an int", lit)
	}
	return int(n), nil
}

// skip reads and discards any value; depth is the nesting level an
// array or object there would open.
func (s *lineScanner) skip(depth int) error {
	switch c := s.peek(); {
	case c == '"':
		_, err := s.str()
		return err
	case (c == '{' || c == '[') && depth > maxDepth:
		return errors.New("exceeded max depth")
	case c == '{':
		return s.object(func([]byte) error { return s.skip(depth + 1) })
	case c == '[':
		s.i++
		if s.peek() == ']' {
			s.i++
			return nil
		}
		for {
			if err := s.skip(depth + 1); err != nil {
				return err
			}
			switch s.peek() {
			case ',':
				s.i++
			case ']':
				s.i++
				return nil
			default:
				return s.fail("after an array element")
			}
		}
	case c == '-' || '0' <= c && c <= '9':
		_, err := s.number()
		return err
	case s.literal("true"), s.literal("false"), s.literal("null"):
		return nil
	}
	return s.fail("looking for a value")
}
