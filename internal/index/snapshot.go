package index

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"stburst/internal/interval"
)

// Member encoding — the stream of one pattern kind inside a bundle
// (bundle.go); never a file of its own. Little-endian throughout:
//
//	magic      [8]byte  "STBSNAP\x00"
//	version    uint32   SnapshotVersion (2)
//	kind       uint32   PatternKind
//	generation uint64   store generation the bundle was saved at
//	terms      uvarint  number of terms holding patterns
//	then, for each term in ascending writer-side interned-ID order:
//	  id       uvarint  the writer's interned term ID
//	  term     uvarint length + that many UTF-8 bytes
//	  count    uvarint  number of patterns of the term
//	  patterns kind-specific records (ints as zig-zag varints, floats as
//	           fixed 8-byte IEEE-754 bit patterns)
//	checksum    [32]byte raw SHA-256 over every preceding byte
//	fingerprint [32]byte raw SHA-256 — the PatternSet's canonical fingerprint
//
// The checksum catches any corruption of the encoded stream (including
// the term strings, which the canonical fingerprint does not cover); the
// fingerprint proves the decoded patterns are bit-identical to the mined
// set. Both must verify and no bytes may follow the footer; ReadSnapshot
// rejects anything else. See DESIGN.md for the full specification.

// snapshotMagic identifies a member stream.
const snapshotMagic = "STBSNAP\x00"

// SnapshotVersion is the one member-stream version written and read.
const SnapshotVersion = 2

// maxSnapshotTermLen bounds a stored term string; longer length prefixes
// can only come from corrupted input and are rejected before allocating.
const maxSnapshotTermLen = 1 << 20

// Snapshot is a decoded member stream, still keyed by the *writer's*
// interned term IDs. Set holds the patterns exactly as they were mined;
// Terms gives the string of each ID in Set.Terms() order, so Remap can
// re-intern the patterns into another collection's dictionary.
type Snapshot struct {
	Set   *PatternSet
	Terms []string
}

// WriteSnapshot serializes a PatternSet to w as a member stream at
// generation 0, resolving each interned term ID to its string through
// term (normally Dictionary.Term). The trailing canonical SHA-256
// fingerprint lets ReadSnapshot verify the round trip bit for bit.
func WriteSnapshot(w io.Writer, s *PatternSet, term func(id int) string) error {
	return writeSnapshot(w, s, term, 0)
}

// writeSnapshot writes one member stamped with generation gen.
func writeSnapshot(w io.Writer, s *PatternSet, term func(id int) string, gen uint64) error {
	if _, err := w.Write(encodeSnapshot(s, term, gen)); err != nil {
		return fmt.Errorf("index: writing snapshot: %w", err)
	}
	return nil
}

// encodeSnapshot is the member encoder: it builds the member in memory,
// closes the payload with one checksum over its bytes and adds the set's
// fingerprint. Bundle.Write stamps every member with the bundle's
// generation.
func encodeSnapshot(s *PatternSet, term func(id int) string, gen uint64) []byte {
	le := binary.LittleEndian
	a := appender{buf: []byte(snapshotMagic)}
	a.buf = le.AppendUint32(a.buf, SnapshotVersion)
	a.buf = le.AppendUint32(a.buf, uint32(s.Kind()))
	a.buf = le.AppendUint64(a.buf, gen)
	a.count(s.NumTerms())
	k := s.Kind().Desc()
	for _, id := range s.Terms() {
		// Grow by doubling, as bytes.Buffer does: append grows a large
		// slice by a quarter at a time, which copies a big member many
		// more times and leaves more freed pages behind.
		if cap(a.buf)-len(a.buf) < 4<<10 {
			a.buf = slices.Grow(a.buf, len(a.buf)+4<<10)
		}
		t := term(id)
		a.count(id)
		a.count(len(t))
		a.buf = append(a.buf, t...)
		vs := s.Views(id)
		a.count(len(vs))
		for i := range vs {
			k.encode(&a, &vs[i])
		}
	}
	sum := sha256.Sum256(a.buf) // the footer is not part of its own checksum
	fp := s.digest()
	return append(append(a.buf, sum[:]...), fp[:]...)
}

// decoder reads a member's fields from its bytes in memory. The first
// short or malformed field records err, and every later read returns a
// zero value, so a truncated member always reads as corruption.
type decoder struct {
	p   []byte // the bytes not yet read
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.p) {
		d.fail(io.ErrUnexpectedEOF)
		return nil
	}
	p := d.p[:n:n]
	d.p = d.p[n:]
	return p
}

// varintErr is the error of a binary.Uvarint or binary.Varint that read
// n <= 0 bytes.
func varintErr(n int) error {
	if n == 0 {
		return io.ErrUnexpectedEOF
	}
	return errors.New("varint overflows a 64-bit integer")
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.p)
	if n <= 0 {
		d.fail(varintErr(n))
		return 0
	}
	d.p = d.p[n:]
	return v
}

func (d *decoder) varint() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.p)
	if n <= 0 {
		d.fail(varintErr(n))
		return 0
	}
	d.p = d.p[n:]
	return int(v)
}

func (d *decoder) float() float64 {
	p := d.bytes(8)
	if p == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(p))
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err == nil && n > maxSnapshotTermLen {
		d.fail(fmt.Errorf("term length %d exceeds limit", n))
	}
	return string(d.bytes(int(n)))
}

// count validates a length prefix and returns a safe preallocation size:
// corrupted prefixes must hit a decode error, never a huge allocation.
func (d *decoder) count() (n int, prealloc int) {
	v := d.uvarint()
	if d.err == nil && v > math.MaxInt32 {
		d.fail(fmt.Errorf("element count %d exceeds limit", v))
	}
	if v > 4096 {
		return int(v), 4096
	}
	return int(v), int(v)
}

// decode reads one pattern's stored fields in the canonical order — the
// mirror of encode.
func (k *Kind) decode(d *decoder) View {
	var v View
	if k.Rect {
		v.Rect.MinX = d.float()
		v.Rect.MinY = d.float()
		v.Rect.MaxX = d.float()
		v.Rect.MaxY = d.float()
	}
	if k.Streams {
		n, prealloc := d.count()
		v.Streams = make([]int, 0, prealloc)
		for i := 0; i < n && d.err == nil; i++ {
			v.Streams = append(v.Streams, d.varint())
		}
	}
	v.Start = d.varint()
	v.End = d.varint()
	v.Score = d.float()
	if k.Intervals {
		n, prealloc := d.count()
		v.Intervals = make([]interval.Interval, 0, prealloc)
		for i := 0; i < n && d.err == nil; i++ {
			var iv interval.Interval
			iv.Stream = d.varint()
			iv.Start = d.varint()
			iv.End = d.varint()
			iv.Weight = d.float()
			v.Intervals = append(v.Intervals, iv)
		}
	}
	return v
}

// ReadSnapshot decodes a member stream written by WriteSnapshot and verifies
// its integrity: the magic, version and kind must be valid, the decoded
// pattern content must reproduce the stored canonical SHA-256 fingerprint
// exactly, and no trailing bytes may follow the footer. Truncated or
// corrupted input yields an error, never a silently damaged index.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("index: reading snapshot: %w", err)
	}
	return decodeSnapshot(data)
}

// decodeSnapshot is ReadSnapshot on a member's bytes.
func decodeSnapshot(data []byte) (*Snapshot, error) {
	d := &decoder{p: data}
	if magic := d.bytes(len(snapshotMagic)); d.err == nil && string(magic) != snapshotMagic {
		return nil, fmt.Errorf("index: not a pattern-index snapshot (bad magic %q)", magic)
	}
	var version, kindRaw uint32
	if p := d.bytes(4); p != nil {
		version = binary.LittleEndian.Uint32(p)
	}
	if d.err == nil && version != SnapshotVersion {
		return nil, fmt.Errorf("index: unsupported snapshot version %d (want %d)", version, SnapshotVersion)
	}
	if p := d.bytes(4); p != nil {
		kindRaw = binary.LittleEndian.Uint32(p)
	}
	kind := PatternKind(kindRaw)
	if d.err == nil && !kind.Valid() {
		return nil, fmt.Errorf("index: unknown snapshot pattern kind %d", kindRaw)
	}
	d.bytes(8) // the generation: the bundle header's copy is the one read

	numTerms, _ := d.count()
	k := kind.Desc()
	put, done := kinds[kind].build()
	var terms []string
	lastID := -1
	for i := 0; i < numTerms && d.err == nil; i++ {
		id := int(d.uvarint())
		if d.err == nil && id <= lastID {
			d.fail(fmt.Errorf("term IDs not strictly ascending (%d after %d)", id, lastID))
			break
		}
		lastID = id
		terms = append(terms, d.string())
		n, prealloc := d.count()
		vs := make([]View, 0, prealloc)
		for j := 0; j < n && d.err == nil; j++ {
			vs = append(vs, k.decode(d))
		}
		put(id, vs)
	}
	payload := data[:len(data)-len(d.p)]
	storedSum := d.bytes(32)
	storedFP := d.bytes(32)
	if d.err != nil {
		return nil, fmt.Errorf("index: reading snapshot: %w", d.err)
	}
	if len(d.p) != 0 {
		return nil, fmt.Errorf("index: snapshot has trailing data after fingerprint footer")
	}
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], storedSum) {
		return nil, fmt.Errorf("index: snapshot corrupted: stream checksum mismatch")
	}
	// The fingerprint is recomputed from the decoded patterns, never taken
	// from the stored bytes: this fills the set's cached digest.
	set := done()
	if fp := set.digest(); !bytes.Equal(fp[:], storedFP) {
		return nil, fmt.Errorf("index: snapshot corrupted: content fingerprint %s does not match stored %s",
			hex.EncodeToString(fp[:]), hex.EncodeToString(storedFP))
	}
	return &Snapshot{Set: set, Terms: terms}, nil
}

// Validate checks every stored pattern against the shape of a target
// collection: stream indices must lie in [0, numStreams) and timestamps
// in [0, timeline). A snapshot can pass the checksum, fingerprint and
// vocabulary checks yet come from a structurally different corpus (fewer
// streams, shorter timeline); out-of-range references would otherwise
// surface later as index-out-of-range panics on the serving path. It also
// checks what the overlap tests and Coverage assume of a pattern and
// every miner guarantees: a finite score (the best covering score is
// then the same in any visiting order), finite rectangle coordinates (a
// NaN corner makes every region overlap test false) and interval weights
// (neither has a JSON form for the pattern listing), member Streams strictly
// ascending (ContainsStream binary-searches them) and member Intervals
// sorted by (Stream, Start) (OverlapsMember searches them by stream).
func (s *PatternSet) Validate(numStreams, timeline int) error {
	checkTime := func(start, end int) error {
		if start < 0 || end < start || end >= timeline {
			return fmt.Errorf("index: pattern timeframe [%d,%d] outside timeline [0,%d)", start, end, timeline)
		}
		return nil
	}
	checkStream := func(x int) error {
		if x < 0 || x >= numStreams {
			return fmt.Errorf("index: pattern stream %d outside [0,%d)", x, numStreams)
		}
		return nil
	}
	for _, t := range s.terms {
		for _, v := range s.Views(t) {
			if err := checkTime(v.Start, v.End); err != nil {
				return err
			}
			if !finite(v.Score) {
				return fmt.Errorf("index: pattern score %v is not finite", v.Score)
			}
			// A NaN corner defeats the region overlap test, and no
			// non-finite value has a JSON form for the pattern listing.
			if r := v.Rect; !finite(r.MinX) || !finite(r.MinY) || !finite(r.MaxX) || !finite(r.MaxY) {
				return fmt.Errorf("index: pattern rect %+v has a coordinate that is not finite", r)
			}
			for i, x := range v.Streams {
				if err := checkStream(x); err != nil {
					return err
				}
				if i > 0 && x <= v.Streams[i-1] {
					return fmt.Errorf("index: pattern streams %v not strictly ascending", v.Streams)
				}
			}
			for i, iv := range v.Intervals {
				if err := checkStream(iv.Stream); err != nil {
					return err
				}
				if err := checkTime(iv.Start, iv.End); err != nil {
					return err
				}
				if !finite(iv.Weight) {
					return fmt.Errorf("index: pattern interval weight %v is not finite", iv.Weight)
				}
				if i > 0 {
					prev := v.Intervals[i-1]
					if iv.Stream < prev.Stream || (iv.Stream == prev.Stream && iv.Start < prev.Start) {
						return fmt.Errorf("index: pattern intervals not sorted by (stream, start) at member %d", i)
					}
				}
			}
		}
	}
	return nil
}

// finite reports whether f is neither NaN nor infinite.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// Remap re-interns the snapshot's patterns into another dictionary:
// every stored term string is resolved through lookup (normally
// Dictionary.Lookup of the serving collection) and the pattern slices are
// re-keyed by the resolved IDs. When the serving dictionary interned the
// corpus in the writer's order — the mine-once/serve-many pipeline — the
// mapping is the identity and the remapped set fingerprints identically
// to the mined one. A stored term the dictionary does not know means the
// snapshot and collection disagree, and is an error.
func (snap *Snapshot) Remap(lookup func(term string) (int, bool)) (*PatternSet, error) {
	ids := snap.Set.Terms()
	mapped := make(map[int]int, len(ids)) // writer ID -> local ID
	used := make(map[int]string, len(ids))
	for i, id := range ids {
		term := snap.Terms[i]
		local, ok := lookup(term)
		if !ok {
			return nil, fmt.Errorf("index: snapshot term %q is not in the collection dictionary", term)
		}
		if prev, dup := used[local]; dup {
			return nil, fmt.Errorf("index: snapshot terms %q and %q both map to dictionary ID %d", prev, term, local)
		}
		used[local] = term
		mapped[id] = local
	}
	set := snap.Set
	return kinds[set.kind].regroup(set, 1, func(id int) (int, int) { return 0, mapped[id] })[0], nil
}
