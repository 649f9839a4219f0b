package index

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"

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

// snapshotWriter serializes primitive values with the format's encodings,
// feeding every payload byte through the stream checksum.
type snapshotWriter struct {
	w   *bufio.Writer
	h   hash.Hash // nil once the payload ends and the footer begins
	buf [binary.MaxVarintLen64]byte
	err error
}

func (sw *snapshotWriter) bytes(p []byte) {
	if sw.err == nil {
		if sw.h != nil {
			sw.h.Write(p)
		}
		_, sw.err = sw.w.Write(p)
	}
}

func (sw *snapshotWriter) uvarint(v uint64) {
	sw.bytes(sw.buf[:binary.PutUvarint(sw.buf[:], v)])
}

func (sw *snapshotWriter) count(n int) { sw.uvarint(uint64(n)) }

func (sw *snapshotWriter) int(v int) {
	sw.bytes(sw.buf[:binary.PutVarint(sw.buf[:], int64(v))])
}

func (sw *snapshotWriter) float(v float64) {
	binary.LittleEndian.PutUint64(sw.buf[:8], math.Float64bits(v))
	sw.bytes(sw.buf[:8])
}

func (sw *snapshotWriter) string(s string) {
	sw.uvarint(uint64(len(s)))
	sw.bytes([]byte(s))
}

// WriteSnapshot serializes a PatternSet to w as a member stream at
// generation 0, resolving each interned term ID to its string through
// term (normally Dictionary.Term). The trailing canonical SHA-256
// fingerprint lets ReadSnapshot verify the round trip bit for bit.
func WriteSnapshot(w io.Writer, s *PatternSet, term func(id int) string) error {
	return writeSnapshot(w, s, term, 0)
}

// writeSnapshot is the member encoder; Bundle.Write stamps every member
// with the bundle's generation.
func writeSnapshot(w io.Writer, s *PatternSet, term func(id int) string, gen uint64) error {
	sw := &snapshotWriter{w: bufio.NewWriter(w), h: sha256.New()}
	sw.bytes([]byte(snapshotMagic))
	binary.LittleEndian.PutUint32(sw.buf[:4], SnapshotVersion)
	sw.bytes(sw.buf[:4])
	binary.LittleEndian.PutUint32(sw.buf[:4], uint32(s.Kind()))
	sw.bytes(sw.buf[:4])
	binary.LittleEndian.PutUint64(sw.buf[:8], gen)
	sw.bytes(sw.buf[:8])
	sw.count(s.NumTerms())
	k := s.Kind().Desc()
	for _, id := range s.Terms() {
		sw.uvarint(uint64(id))
		sw.string(term(id))
		vs := s.Views(id)
		sw.count(len(vs))
		for i := range vs {
			k.encode(sw, &vs[i])
		}
	}
	fp, err := hex.DecodeString(s.Fingerprint())
	if err != nil {
		return fmt.Errorf("index: encoding snapshot fingerprint: %w", err)
	}
	sum := sw.h.Sum(nil)
	sw.h = nil // the footer is not part of its own checksum
	sw.bytes(sum)
	sw.bytes(fp)
	if sw.err != nil {
		return fmt.Errorf("index: writing snapshot: %w", sw.err)
	}
	if err := sw.w.Flush(); err != nil {
		return fmt.Errorf("index: writing snapshot: %w", err)
	}
	return nil
}

// snapshotReader decodes primitive values, converting any mid-stream EOF
// into io.ErrUnexpectedEOF so truncation always reads as corruption, and
// feeding every consumed payload byte through the stream checksum.
type snapshotReader struct {
	r   *bufio.Reader
	h   hash.Hash // nil once the payload ends and the footer begins
	err error
}

// ReadByte implements io.ByteReader for binary.ReadUvarint/ReadVarint,
// folding the consumed byte into the checksum.
func (sr *snapshotReader) ReadByte() (byte, error) {
	b, err := sr.r.ReadByte()
	if err == nil && sr.h != nil {
		sr.h.Write([]byte{b})
	}
	return b, err
}

func (sr *snapshotReader) fail(err error) {
	if sr.err == nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		sr.err = err
	}
}

func (sr *snapshotReader) bytes(n int) []byte {
	if sr.err != nil {
		return nil
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(sr.r, p); err != nil {
		sr.fail(err)
		return nil
	}
	if sr.h != nil {
		sr.h.Write(p)
	}
	return p
}

func (sr *snapshotReader) uvarint() uint64 {
	if sr.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(sr)
	if err != nil {
		sr.fail(err)
	}
	return v
}

func (sr *snapshotReader) varint() int {
	if sr.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(sr)
	if err != nil {
		sr.fail(err)
	}
	return int(v)
}

func (sr *snapshotReader) float() float64 {
	p := sr.bytes(8)
	if p == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(p))
}

func (sr *snapshotReader) string() string {
	n := sr.uvarint()
	if sr.err == nil && n > maxSnapshotTermLen {
		sr.fail(fmt.Errorf("term length %d exceeds limit", n))
	}
	return string(sr.bytes(int(n)))
}

// count validates a length prefix and returns a safe preallocation size:
// corrupted prefixes must hit a decode error, never a huge allocation.
func (sr *snapshotReader) count() (n int, prealloc int) {
	v := sr.uvarint()
	if sr.err == nil && v > math.MaxInt32 {
		sr.fail(fmt.Errorf("element count %d exceeds limit", v))
	}
	if v > 4096 {
		return int(v), 4096
	}
	return int(v), int(v)
}

// decode reads one pattern's stored fields in the canonical order — the
// mirror of encode.
func (k *Kind) decode(sr *snapshotReader) View {
	var v View
	if k.Rect {
		v.Rect.MinX = sr.float()
		v.Rect.MinY = sr.float()
		v.Rect.MaxX = sr.float()
		v.Rect.MaxY = sr.float()
	}
	if k.Streams {
		n, prealloc := sr.count()
		v.Streams = make([]int, 0, prealloc)
		for i := 0; i < n && sr.err == nil; i++ {
			v.Streams = append(v.Streams, sr.varint())
		}
	}
	v.Start = sr.varint()
	v.End = sr.varint()
	v.Score = sr.float()
	if k.Intervals {
		n, prealloc := sr.count()
		v.Intervals = make([]interval.Interval, 0, prealloc)
		for i := 0; i < n && sr.err == nil; i++ {
			var iv interval.Interval
			iv.Stream = sr.varint()
			iv.Start = sr.varint()
			iv.End = sr.varint()
			iv.Weight = sr.float()
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
	sr := &snapshotReader{r: bufio.NewReader(r), h: sha256.New()}
	if magic := sr.bytes(len(snapshotMagic)); sr.err == nil && string(magic) != snapshotMagic {
		return nil, fmt.Errorf("index: not a pattern-index snapshot (bad magic %q)", magic)
	}
	var version, kindRaw uint32
	if p := sr.bytes(4); p != nil {
		version = binary.LittleEndian.Uint32(p)
	}
	if sr.err == nil && version != SnapshotVersion {
		return nil, fmt.Errorf("index: unsupported snapshot version %d (want %d)", version, SnapshotVersion)
	}
	if p := sr.bytes(4); p != nil {
		kindRaw = binary.LittleEndian.Uint32(p)
	}
	kind := PatternKind(kindRaw)
	if sr.err == nil && !kind.Valid() {
		return nil, fmt.Errorf("index: unknown snapshot pattern kind %d", kindRaw)
	}
	sr.bytes(8) // the generation: the bundle header's copy is the one read

	numTerms, _ := sr.count()
	k := kind.Desc()
	put, done := kinds[kind].build()
	var terms []string
	lastID := -1
	for i := 0; i < numTerms && sr.err == nil; i++ {
		id := int(sr.uvarint())
		if sr.err == nil && id <= lastID {
			sr.fail(fmt.Errorf("term IDs not strictly ascending (%d after %d)", id, lastID))
			break
		}
		lastID = id
		terms = append(terms, sr.string())
		n, prealloc := sr.count()
		vs := make([]View, 0, prealloc)
		for j := 0; j < n && sr.err == nil; j++ {
			vs = append(vs, k.decode(sr))
		}
		put(id, vs)
	}
	sum := sr.h.Sum(nil)
	sr.h = nil // the footer is not part of its own checksum
	storedSum := sr.bytes(32)
	storedFP := sr.bytes(32)
	if sr.err != nil {
		return nil, fmt.Errorf("index: reading snapshot: %w", sr.err)
	}
	if _, err := sr.r.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("index: snapshot has trailing data after fingerprint footer")
	}
	if !bytes.Equal(sum, storedSum) {
		return nil, fmt.Errorf("index: snapshot corrupted: stream checksum mismatch")
	}
	set := done()
	if got := set.Fingerprint(); got != hex.EncodeToString(storedFP) {
		return nil, fmt.Errorf("index: snapshot corrupted: content fingerprint %s does not match stored %s",
			got, hex.EncodeToString(storedFP))
	}
	return &Snapshot{Set: set, Terms: terms}, nil
}

// Validate checks every stored pattern against the shape of a target
// collection: stream indices must lie in [0, numStreams) and timestamps
// in [0, timeline). A snapshot can pass the checksum, fingerprint and
// vocabulary checks yet come from a structurally different corpus (fewer
// streams, shorter timeline); out-of-range references would otherwise
// surface later as index-out-of-range panics on the serving path.
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
			for _, x := range v.Streams {
				if err := checkStream(x); err != nil {
					return err
				}
			}
			for _, iv := range v.Intervals {
				if err := checkStream(iv.Stream); err != nil {
					return err
				}
				if err := checkTime(iv.Start, iv.End); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

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
