// Package wal implements the per-store write-ahead log of the live
// ingestion path: ingest batches are framed, checksummed and fsync'd to
// disk *before* they apply to the in-memory collection, and replayed in
// order on boot so a crash loses no acknowledged batch.
//
// # On-disk layout
//
// A log is a directory of segment files named wal-%016x.stwal, where
// the hex field is the sequence number the segment's first frame will
// carry (lexicographic order == numeric order). A new segment's name
// always sorts after every existing one, and a log whose every frame
// was pruned resumes its sequence from the active segment's name.
// Every segment starts with a 12-byte header:
//
//	offset  size  field
//	0       8     magic "STBWAL\x00\x00"
//	8       4     format version (little-endian uint32, currently 1)
//
// followed by zero or more frames, one per ingest batch:
//
//	offset  size  field
//	0       4     payload length L (little-endian uint32)
//	4       4     CRC32-C of the payload
//	8       4     CRC32-C of the first 8 header bytes
//	12      L     payload
//
// The payload is:
//
//	seq      uint64 (fixed, little-endian) — monotonic batch sequence
//	preGen   uint64 (fixed) — store generation just before the batch
//	baseDocs uint64 (fixed) — collection doc count just before the batch
//	ndocs    uvarint, then per document:
//	  stream uvarint
//	  time   uvarint
//	  nterms uvarint, then per term (ascending term order):
//	    len-prefixed term string, count uvarint
//
// Terms are written in sorted order, matching the deterministic
// interning of stream.Collection.Append, so a replayed batch assigns
// exactly the IDs the original did.
//
// # Crash model and recovery
//
// Appends go through a single write(2) followed (under SyncAlways) by
// fsync, so a crash leaves at most a torn *suffix* of the active
// segment. The scanner distinguishes a torn tail — fewer than 12 bytes
// remaining, a frame extending past EOF, or a payload-checksum mismatch
// on the very last bytes of the file — which it silently truncates,
// from mid-log damage — a corrupt frame with valid data after it, a
// header-checksum mismatch, a sequence gap or duplicate, or any
// anomaly in a sealed (non-final) segment — which is a hard error:
// under SyncAlways every earlier frame was durable before the next
// began, so mid-log damage means the disk lost acknowledged data and
// silently skipping it would un-acknowledge batches. (SyncNever trades
// exactly this guarantee away: page writeback is unordered, so a crash
// may persist a later frame but not an earlier one, which recovery
// then reports as corruption.)
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"stburst/internal/atomicfile"
	"stburst/internal/stream"
)

const (
	segMagic   = "STBWAL\x00\x00"
	segVersion = 1
	headerLen  = 12 // segment header: magic + version
	frameLen   = 12 // frame header: length + payload CRC + header CRC

	// maxPayload bounds a single frame; a length field beyond it with a
	// valid header checksum means the log was written by something else.
	maxPayload = 1 << 28

	segPrefix = "wal-"
	segSuffix = ".stwal"

	// defaultSegmentBytes is the rotation threshold when Options leaves
	// segmentBytes zero.
	defaultSegmentBytes = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs every appended frame before Append returns —
	// the durability contract the recovery guarantees assume.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the OS: faster, but a crash may lose
	// or corrupt acknowledged batches (see the package comment).
	SyncNever
)

// Options configures a log.
type Options struct {
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// segmentBytes rotates the active segment once it would exceed this
	// size (default defaultSegmentBytes). A single oversized frame still
	// goes through — segments bound typical file size, not frame size.
	// Only the rotation tests lower it.
	segmentBytes int64
	// injector, when non-nil, routes the active segment's writes and
	// fsyncs through the tests' fault injector (inject_test.go): no test
	// can make fsync fail on a real file. Only the package's tests set
	// it, as they lower segmentBytes.
	injector interface {
		write(f *os.File, p []byte) (int, error)
		sync(f *os.File) error
	}
}

// Batch is one logged ingest batch.
type Batch struct {
	// Seq is the batch's monotonic sequence number, consecutive across
	// the whole log.
	Seq uint64
	// PreGen is the store generation immediately before the batch
	// applied — recovery uses it to tell which batches a loaded bundle
	// already covers.
	PreGen uint64
	// BaseDocs is the collection's document count immediately before
	// the batch appended — a replay-position guard: replaying into a
	// collection of any other size would assign different document IDs.
	BaseDocs uint64
	// Docs is the batch itself, in append order.
	Docs []stream.AppendDoc
}

// Stats is a point-in-time summary of the log.
type Stats struct {
	// LastSeq is the sequence number of the most recently appended (or
	// scanned) frame, pruned or not; 0 when the log has never held a
	// frame.
	LastSeq uint64
	// Batches is the number of frames across all segments.
	Batches int
	// Segments is the number of segment files.
	Segments int
	// Bytes is the total size of all segments (headers included).
	Bytes int64
	// Syncs counts successful fsyncs of segment data since Open.
	Syncs uint64
}

// segMeta describes one sealed (read-only) segment.
type segMeta struct {
	name    string
	lastSeq uint64
	frames  int
	bytes   int64
}

// Log is an append-only write-ahead log over a directory of segment
// files. It is safe for concurrent use; appends serialize.
type Log struct {
	dir  string
	opts Options

	mu         sync.Mutex
	f          *os.File // active segment
	activeName string
	activeSize int64 // valid bytes in the active segment
	frames     int   // frames in the active segment
	sealed     []segMeta
	lastSeq    uint64
	batches    int
	syncs      uint64
	err        error // sticky: set when a failed append cannot be rolled back
	buf        bytes.Buffer
}

// Open opens (creating if necessary) the log in dir, scans every
// segment, truncates a torn tail off the final one, and returns the log
// positioned after its last intact frame plus every scanned batch in
// sequence order — the batches a crashed process logged but may not
// have applied. Mid-log corruption or a sequence gap is a hard error
// (see the package comment for the classification).
func Open(dir string, opts Options) (*Log, []Batch, error) {
	if opts.segmentBytes <= 0 {
		opts.segmentBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	names, err := listSegments(dir)
	if err != nil {
		return nil, nil, err
	}

	l := &Log{dir: dir, opts: opts}
	var pending []Batch
	var prevSeq uint64
	seenAny := false
	for i, name := range names {
		last := i == len(names)-1
		res, err := scanSegment(filepath.Join(dir, name), last, &prevSeq, &seenAny)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: segment %s: %w", name, err)
		}
		pending = append(pending, res.batches...)
		l.batches += len(res.batches)
		if last {
			l.activeName = name
			l.activeSize = res.validEnd
			l.frames = len(res.batches)
		} else {
			l.sealed = append(l.sealed, segMeta{
				name:    name,
				lastSeq: res.lastSeq,
				frames:  len(res.batches),
				bytes:   res.validEnd,
			})
		}
	}
	l.lastSeq = prevSeq
	if !seenAny && l.activeName != "" {
		// Every frame was pruned away: the active segment's name still
		// announces the sequence its first frame will carry, so resume
		// there instead of restarting at 1.
		if n := segmentSeq(l.activeName); n > 0 {
			l.lastSeq = n - 1
		}
	}

	if l.activeName == "" {
		if err := l.createSegmentLocked(1); err != nil {
			return nil, nil, err
		}
		return l, nil, nil
	}

	// Re-adopt the last segment as the active one, truncating a torn
	// tail (or a torn 12-byte header) so the next append lands exactly
	// after the last intact frame — stale bytes beyond that point would
	// read as corruption after the next write.
	path := filepath.Join(dir, l.activeName)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	if l.activeSize < headerLen {
		// The crash tore the segment header itself; no frame was ever in
		// this segment, so rewrite it in place.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncating torn segment header: %w", err)
		}
		if err := writeSegmentHeader(f); err != nil {
			f.Close()
			return nil, nil, err
		}
		l.activeSize = headerLen
	} else {
		size, err := f.Seek(0, 2)
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		if size > l.activeSize {
			if err := f.Truncate(l.activeSize); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("wal: truncating torn tail: %w", err)
			}
		}
		if _, err := f.Seek(l.activeSize, 0); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l.f = f
	return l, pending, nil
}

// Append frames, checksums and (under SyncAlways) fsyncs one batch,
// returning its assigned sequence number. The frame is on stable
// storage when Append returns nil — the caller may acknowledge the
// batch and apply it. On error nothing is acknowledged: the partial
// frame is rolled back so the log stays appendable, and the same batch
// may be re-logged.
func (l *Log) Append(preGen, baseDocs uint64, docs []stream.AppendDoc) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.f == nil {
		return 0, errors.New("wal: log is closed")
	}
	seq := l.lastSeq + 1

	l.buf.Reset()
	encodePayload(&l.buf, seq, preGen, baseDocs, docs)
	payload := l.buf.Bytes()
	frame := make([]byte, frameLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint32(frame[8:12], crc32.Checksum(frame[0:8], castagnoli))
	copy(frame[frameLen:], payload)

	if l.frames > 0 && l.activeSize+int64(len(frame)) > l.opts.segmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}

	frameStart := l.activeSize
	if _, err := l.fwrite(frame); err != nil {
		l.rollbackLocked(frameStart)
		return 0, fmt.Errorf("wal: appending frame %d: %w", seq, err)
	}
	if l.opts.Sync != SyncNever { // anything but an explicit opt-out syncs
		if err := l.fsync(); err != nil {
			l.rollbackLocked(frameStart)
			return 0, fmt.Errorf("wal: syncing frame %d: %w", seq, err)
		}
	}
	l.activeSize += int64(len(frame))
	l.frames++
	l.batches++
	l.lastSeq = seq
	return seq, nil
}

// rollbackLocked discards a partially written frame so the active
// segment ends exactly after its last intact frame again. If the
// rollback itself fails the log is marked broken: every later Append
// returns the sticky error rather than interleaving frames with
// garbage.
func (l *Log) rollbackLocked(frameStart int64) {
	if err := l.f.Truncate(frameStart); err != nil {
		l.err = fmt.Errorf("wal: log unusable: failed to roll back a torn frame: %w", err)
		return
	}
	if _, err := l.f.Seek(frameStart, 0); err != nil {
		l.err = fmt.Errorf("wal: log unusable: failed to roll back a torn frame: %w", err)
	}
}

// Rotate seals the active segment and starts a new one. A segment with
// no frames yet is reused as-is. Store.Save calls this after a
// successful save so segment files stay bounded; rotation never
// discards frames (see Prune).
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.f == nil {
		return errors.New("wal: log is closed")
	}
	if l.frames == 0 {
		return nil
	}
	return l.rotateLocked()
}

func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	l.sealed = append(l.sealed, segMeta{
		name:    l.activeName,
		lastSeq: l.lastSeq,
		frames:  l.frames,
		bytes:   l.activeSize,
	})
	l.f = nil
	return l.createSegmentLocked(l.lastSeq + 1)
}

// createSegmentLocked creates and syncs a fresh active segment whose
// name announces the sequence its first frame will carry. The name
// always sorts after the current active segment's: a log an older
// release reopened at sequence 1 after a prune holds frames below its
// active segment's name, and a colliding or earlier-sorting name would
// break rotation or the next scan's order.
func (l *Log) createSegmentLocked(firstSeq uint64) error {
	if l.activeName != "" {
		firstSeq = max(firstSeq, segmentSeq(l.activeName)+1)
	}
	name := fmt.Sprintf("%s%016x%s", segPrefix, firstSeq, segSuffix)
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := writeSegmentHeader(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.activeName = name
	l.activeSize = headerLen
	l.frames = 0
	return nil
}

func writeSegmentHeader(f *os.File) error {
	var hdr [headerLen]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], segVersion)
	if _, err := f.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	return nil
}

// SealedBatches re-reads every sealed (rotated-away) segment and returns
// its batches in sequence order, plus the sequence number of the last
// sealed frame — the argument a caller passes to Prune once those
// batches are durable elsewhere. The active segment's frames are
// excluded: rotation has not sealed them yet. Sealed segments are
// immutable, so re-scanning them applies the same integrity checks the
// open-time scan did; any anomaly is a hard error.
func (l *Log) SealedBatches() ([]Batch, uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var batches []Batch
	var prevSeq, last uint64
	seenAny := false
	for _, m := range l.sealed {
		res, err := scanSegment(filepath.Join(l.dir, m.name), false, &prevSeq, &seenAny)
		if err != nil {
			return nil, 0, fmt.Errorf("wal: segment %s: %w", m.name, err)
		}
		batches = append(batches, res.batches...)
		last = res.lastSeq
	}
	return batches, last, nil
}

// Prune deletes sealed segments whose every frame has sequence number
// <= seq. The active segment is never deleted. Pruning is safe only
// once the logged batches are durable elsewhere — for this store, once
// the corpus file itself contains the appended documents; a bundle
// written by Store.Save does NOT (it persists patterns, not documents),
// which is why Save rotates instead of pruning.
func (l *Log) Prune(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var kept []segMeta
	var firstErr error
	for _, m := range l.sealed {
		if firstErr == nil && m.lastSeq <= seq {
			if err := os.Remove(filepath.Join(l.dir, m.name)); err != nil {
				firstErr = fmt.Errorf("wal: pruning %s: %w", m.name, err)
				kept = append(kept, m)
				continue
			}
			l.batches -= m.frames
			continue
		}
		kept = append(kept, m)
	}
	l.sealed = kept
	if firstErr != nil {
		return firstErr
	}
	return syncDir(l.dir)
}

// Stats returns a point-in-time summary of the log.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		LastSeq:  l.lastSeq,
		Batches:  l.batches,
		Segments: len(l.sealed),
		Bytes:    l.activeSize,
		Syncs:    l.syncs,
	}
	if l.f != nil || l.activeName != "" {
		st.Segments++
	}
	for _, m := range l.sealed {
		st.Bytes += m.bytes
	}
	return st
}

// Close syncs and closes the active segment. The log is unusable
// afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	if err != nil {
		return fmt.Errorf("wal: closing: %w", err)
	}
	return nil
}

func (l *Log) fwrite(p []byte) (int, error) {
	if in := l.opts.injector; in != nil {
		return in.write(l.f, p)
	}
	return l.f.Write(p)
}

func (l *Log) fsync() error {
	var err error
	if in := l.opts.injector; in != nil {
		err = in.sync(l.f)
	} else {
		err = l.f.Sync()
	}
	if err == nil {
		l.syncs++
	}
	return err
}

func syncDir(dir string) error {
	if err := atomicfile.SyncDir(dir); err != nil {
		return fmt.Errorf("wal: syncing directory: %w", err)
	}
	return nil
}

// listSegments returns the segment file names in dir in ascending
// first-sequence order. Files not matching the segment naming scheme
// are ignored.
func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		if len(hex) != 16 {
			continue
		}
		if _, err := strconv.ParseUint(hex, 16, 64); err != nil {
			continue
		}
		names = append(names, name)
	}
	// Zero-padded hex: lexicographic order is numeric order.
	sort.Strings(names)
	return names, nil
}

// segmentSeq returns the sequence number a segment name listSegments
// accepted announces.
func segmentSeq(name string) uint64 {
	n, _ := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 16, 64)
	return n
}

// segScan is the result of scanning one segment.
type segScan struct {
	batches  []Batch
	validEnd int64 // offset just past the last intact frame
	lastSeq  uint64
}

// scanSegment reads every frame of one segment, classifying anomalies
// per the package comment: a torn tail of the final segment truncates
// silently, everything else is a hard error. prevSeq/seenAny thread the
// sequence-continuity check across segments; the first frame of the
// whole log may carry any sequence (earlier segments may have been
// pruned), every later frame must follow its predecessor exactly.
func scanSegment(path string, last bool, prevSeq *uint64, seenAny *bool) (segScan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return segScan{}, err
	}
	if len(data) < headerLen {
		if last {
			// A crash during segment creation tore the header; there is
			// nothing after it to lose.
			return segScan{validEnd: int64(len(data))}, nil
		}
		return segScan{}, errors.New("sealed segment is shorter than its header")
	}
	if string(data[:8]) != segMagic {
		return segScan{}, errors.New("not a wal segment (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != segVersion {
		return segScan{}, fmt.Errorf("unsupported wal segment version %d", v)
	}

	res := segScan{validEnd: headerLen}
	off := headerLen
	for {
		rem := len(data) - off
		if rem == 0 {
			return res, nil
		}
		if rem < frameLen {
			if last {
				return res, nil // torn frame header: a tail the crash cut short
			}
			return segScan{}, fmt.Errorf("torn frame header at offset %d of a sealed segment", off)
		}
		hdr := data[off : off+frameLen]
		if crc32.Checksum(hdr[0:8], castagnoli) != binary.LittleEndian.Uint32(hdr[8:12]) {
			// A pure truncation can never damage bytes it leaves behind,
			// so a bad header checksum is corruption even at the tail.
			return segScan{}, fmt.Errorf("corrupt frame header at offset %d", off)
		}
		plen := int(binary.LittleEndian.Uint32(hdr[0:4]))
		if plen > maxPayload {
			return segScan{}, fmt.Errorf("implausible frame length %d at offset %d", plen, off)
		}
		if rem-frameLen < plen {
			if last {
				return res, nil // frame extends past EOF: torn tail
			}
			return segScan{}, fmt.Errorf("frame at offset %d extends past the end of a sealed segment", off)
		}
		payload := data[off+frameLen : off+frameLen+plen]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
			if last && off+frameLen+plen == len(data) {
				// The final frame's payload is damaged and nothing follows
				// it: the torn-write the crash model predicts.
				return res, nil
			}
			return segScan{}, fmt.Errorf("corrupt frame payload at offset %d", off)
		}
		b, err := decodePayload(payload)
		if err != nil {
			return segScan{}, fmt.Errorf("undecodable frame at offset %d: %w", off, err)
		}
		if *seenAny {
			if b.Seq == *prevSeq {
				return segScan{}, fmt.Errorf("duplicate sequence number %d at offset %d", b.Seq, off)
			}
			if b.Seq != *prevSeq+1 {
				return segScan{}, fmt.Errorf("sequence gap at offset %d: frame %d follows frame %d", off, b.Seq, *prevSeq)
			}
		}
		*seenAny = true
		*prevSeq = b.Seq
		res.batches = append(res.batches, b)
		res.lastSeq = b.Seq
		off += frameLen + plen
		res.validEnd = int64(off)
	}
}

// encodePayload serializes one batch; see the package comment for the
// layout. Terms are written in sorted order so a replayed batch interns
// exactly as the original did.
func encodePayload(buf *bytes.Buffer, seq, preGen, baseDocs uint64, docs []stream.AppendDoc) {
	var fix [8]byte
	putFixed := func(v uint64) {
		binary.LittleEndian.PutUint64(fix[:], v)
		buf.Write(fix[:])
	}
	var varb [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		buf.Write(varb[:binary.PutUvarint(varb[:], v)])
	}
	putFixed(seq)
	putFixed(preGen)
	putFixed(baseDocs)
	putUvarint(uint64(len(docs)))
	var terms []string
	for _, d := range docs {
		putUvarint(uint64(d.Stream))
		putUvarint(uint64(d.Time))
		putUvarint(uint64(len(d.Counts)))
		terms = terms[:0]
		for t := range d.Counts {
			terms = append(terms, t)
		}
		sort.Strings(terms)
		for _, t := range terms {
			putUvarint(uint64(len(t)))
			buf.WriteString(t)
			putUvarint(uint64(d.Counts[t]))
		}
	}
}

// decodePayload parses one checksum-verified frame payload.
func decodePayload(p []byte) (Batch, error) {
	d := payloadDecoder{p: p}
	var b Batch
	b.Seq = d.fixed64()
	b.PreGen = d.fixed64()
	b.BaseDocs = d.fixed64()
	ndocs := d.uvarint()
	if d.err == nil && ndocs > uint64(len(d.p)-d.off)+1 {
		return Batch{}, fmt.Errorf("document count %d exceeds frame size", ndocs)
	}
	if d.err == nil {
		b.Docs = make([]stream.AppendDoc, 0, ndocs)
	}
	for i := uint64(0); i < ndocs && d.err == nil; i++ {
		var doc stream.AppendDoc
		doc.Stream = int(d.uvarint())
		doc.Time = int(d.uvarint())
		nterms := d.uvarint()
		if d.err == nil && nterms > uint64(len(d.p)-d.off)+1 {
			return Batch{}, fmt.Errorf("term count %d exceeds frame size", nterms)
		}
		if d.err == nil {
			doc.Counts = make(map[string]int, nterms)
		}
		for j := uint64(0); j < nterms && d.err == nil; j++ {
			t := d.str()
			doc.Counts[t] = int(d.uvarint())
		}
		b.Docs = append(b.Docs, doc)
	}
	if d.err != nil {
		return Batch{}, d.err
	}
	if d.off != len(d.p) {
		return Batch{}, fmt.Errorf("%d trailing bytes after the last document", len(d.p)-d.off)
	}
	return b, nil
}

type payloadDecoder struct {
	p   []byte
	off int
	err error
}

func (d *payloadDecoder) fixed64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.p) {
		d.err = errors.New("truncated fixed64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.p[d.off:])
	d.off += 8
	return v
}

func (d *payloadDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.p[d.off:])
	if n <= 0 {
		d.err = errors.New("truncated or overlong uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *payloadDecoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.p)-d.off) {
		d.err = errors.New("string length exceeds frame size")
		return ""
	}
	s := string(d.p[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}
