package index

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"

	"stburst/internal/atomicfile"
)

// Bundle binary format (".bundle", little-endian throughout) — the one
// persisted pattern artifact, in one layout:
//
//	magic      [8]byte  "STBBNDL\x00"
//	version    uint32   BundleVersion (4)
//	count      uint32   number of member streams (1..3)
//	generation uint64   store generation the bundle was saved at
//	shard block:
//	  shard       uint32   this bundle's shard index, in [0, shards)
//	  shards      uint32   total shard count of the partition (≥ 1)
//	  scheme      uint32 length + that many bytes, the partition-scheme
//	              tag (ShardScheme; ≤ 64 bytes)
//	  corpusfp    [32]byte raw SHA-256 of the mined corpus (all zero
//	              when unrecorded)
//	subscriptions block:
//	  nsubs       uint32   number of persisted standing queries
//	  then, per subscription: uint32 length + that many bytes, an opaque
//	  JSON blob the store layer owns (the codec never interprets it)
//	then, for each member, one manifest entry:
//	  kind        uint32   PatternKind; entries in strictly ascending order
//	  length      uint64   byte length of the member's stream
//	  fingerprint [32]byte the member's canonical PatternSet fingerprint
//	members     count complete member streams (the encoding of
//	            snapshot.go), concatenated, each exactly length bytes
//	checksum    [32]byte raw SHA-256 over every preceding byte
//
// Both blocks are always present: a whole, subscription-free store is the
// degenerate case — shard 0 of 1, empty scheme, all-zero corpus
// fingerprint, zero subscriptions — and a single-kind artifact is a
// one-member bundle.
//
// The manifest makes the bundle self-describing — a reader learns which
// kinds are present and their fingerprints without decoding a single
// pattern — and the trailing checksum covers the manifest itself, so a
// flipped kind, length or fingerprint is caught even though each member
// stream only self-verifies its own bytes. ReadStore additionally
// checks every decoded member against its manifest entry: the kind and
// the canonical fingerprint must both match. See DESIGN.md for the full
// specification.

// bundleMagic identifies a pattern-index bundle stream.
const bundleMagic = "STBBNDL\x00"

// BundleVersion is the one bundle layout written and read.
const BundleVersion = 4

// maxBundleMembers bounds the member count: one slot per pattern kind.
const maxBundleMembers = NumKinds

// maxMemberPrealloc caps the buffer a member's declared length sizes up
// front; a longer member grows it as it is read.
const maxMemberPrealloc = 16 << 20

// maxBundleSubs and maxBundleSubBytes bound the subscriptions block: a
// count or length beyond them can only come from corrupted input and is
// rejected before allocating.
const (
	maxBundleSubs     = 1 << 20
	maxBundleSubBytes = 1 << 20
)

// Bundle is the store artifact: what Write serializes and what ReadStore
// decodes. Sets are the members to write, non-empty, of distinct kinds in
// ascending kind order; Snaps are the members as read, still keyed by the
// writer's term IDs (Snapshot.Remap attaches them to a collection).
// Generation is the store generation the artifact was saved at, the
// live-ingestion cache-busting token (0 for a freshly mined artifact).
// Shard is the slice of a partitioned vocabulary the bundle holds —
// ShardInfo{Shards: 1} for a whole store — and Subs the persisted
// standing queries, one opaque JSON blob each, owned and interpreted
// entirely by the store layer.
type Bundle struct {
	Sets       []*PatternSet
	Snaps      []*Snapshot
	Generation uint64
	Shard      ShardInfo
	Subs       [][]byte
}

// Write serializes the bundle: the header with its shard and
// subscriptions blocks, a manifest, then each of Sets as a member stream
// stamped with Generation, then a stream checksum over the whole file;
// term resolves interned IDs to strings (normally Dictionary.Term). Shard is
// validated; a corpus fingerprint, when present, must be a hex SHA-256 as
// produced by Collection.Checksum.
func (b *Bundle) Write(w io.Writer, term func(id int) string) error {
	if err := b.Shard.validate(); err != nil {
		return err
	}
	if len(b.Subs) > maxBundleSubs {
		return fmt.Errorf("index: bundle holds at most %d subscriptions, got %d", maxBundleSubs, len(b.Subs))
	}
	sets := b.Sets
	if len(sets) == 0 || len(sets) > maxBundleMembers {
		return fmt.Errorf("index: bundle needs 1..%d member sets, got %d", maxBundleMembers, len(sets))
	}
	members := make([][]byte, len(sets))
	for i, s := range sets {
		if i > 0 && sets[i-1].Kind() >= s.Kind() {
			return fmt.Errorf("index: bundle members must be in ascending kind order (%v before %v)",
				sets[i-1].Kind(), s.Kind())
		}
		members[i] = encodeSnapshot(s, term, b.Generation)
	}

	le := binary.LittleEndian
	head := []byte(bundleMagic)
	head = le.AppendUint32(head, BundleVersion)
	head = le.AppendUint32(head, uint32(len(sets)))
	head = le.AppendUint64(head, b.Generation)
	head = le.AppendUint32(head, uint32(b.Shard.Shard))
	head = le.AppendUint32(head, uint32(b.Shard.Shards))
	head = le.AppendUint32(head, uint32(len(b.Shard.Scheme)))
	head = append(head, b.Shard.Scheme...)
	// validate vouched for the hex; an unrecorded fingerprint decodes to
	// nothing and the block stays all-zero.
	var corpus [32]byte
	raw, _ := hex.DecodeString(b.Shard.CorpusFingerprint)
	copy(corpus[:], raw)
	head = append(head, corpus[:]...)
	head = le.AppendUint32(head, uint32(len(b.Subs)))
	for _, blob := range b.Subs {
		if len(blob) > maxBundleSubBytes {
			return fmt.Errorf("index: bundle subscription record longer than %d bytes", maxBundleSubBytes)
		}
		head = le.AppendUint32(head, uint32(len(blob)))
		head = append(head, blob...)
	}
	for i, s := range sets {
		fp := s.digest()
		head = le.AppendUint32(head, uint32(s.Kind()))
		head = le.AppendUint64(head, uint64(len(members[i])))
		head = append(head, fp[:]...)
	}

	h := sha256.New()
	chunks := append([][]byte{head}, members...)
	for _, c := range chunks {
		h.Write(c)
	}
	chunks = append(chunks, h.Sum(nil)) // the footer is not part of its own checksum
	for _, c := range chunks {
		if _, err := w.Write(c); err != nil {
			return fmt.Errorf("index: writing bundle: %w", err)
		}
	}
	return nil
}

// WriteFile is Write to a file, published atomically and durably
// (atomicfile.Write).
func (b *Bundle) WriteFile(path string, term func(id int) string) error {
	return atomicfile.Write(path, func(w io.Writer) error { return b.Write(w, term) })
}

// WriteBundle writes sets as a whole-vocabulary bundle at generation gen:
// Bundle.Write without shard identity or subscriptions.
func WriteBundle(w io.Writer, sets []*PatternSet, term func(id int) string, gen uint64) error {
	return WriteBundleSharded(w, sets, term, gen, ShardInfo{Shards: 1})
}

// WriteBundleSharded writes sets as the bundle of one shard of a
// partitioned vocabulary: Bundle.Write with a shard identity, so a
// serving process (or a gateway aggregating several) can detect a mixed
// or foreign shard set before answering a single query.
func WriteBundleSharded(w io.Writer, sets []*PatternSet, term func(id int) string, gen uint64, info ShardInfo) error {
	return (&Bundle{Sets: sets, Generation: gen, Shard: info}).Write(w, term)
}

// bundleManifestEntry is one decoded manifest record.
type bundleManifestEntry struct {
	kind        PatternKind
	length      uint64
	fingerprint [32]byte
}

// ReadBundle decodes a bundle and returns its members and generation;
// see ReadStore for the checks.
func ReadBundle(r io.Reader) ([]*Snapshot, uint64, error) {
	b, err := ReadStore(r)
	if err != nil {
		return nil, 0, err
	}
	return b.Snaps, b.Generation, nil
}

// ReadStore decodes the store artifact — a bundle, with its shard
// identity and subscriptions — and verifies its integrity end to end: the
// magic, version and member count must be valid, the shard block and
// subscription lengths within their bounds, the manifest kinds strictly
// ascending, every member stream must decode (with its own checksum and
// fingerprint checks) to exactly its declared length, kind and manifest
// fingerprint, the trailing stream checksum must match, and no bytes may
// follow it. Truncated or corrupted input — including a tampered
// manifest — yields an error, never a silently damaged store. The
// subscription blobs come back byte-for-byte.
func ReadStore(r io.Reader) (*Bundle, error) {
	r = bufio.NewReader(r) // the header is many small reads
	h := sha256.New()
	tr := io.TeeReader(r, h)
	b := &Bundle{}
	fail := func(err error) (*Bundle, error) {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("index: reading bundle: %w", err)
	}
	reject := func(format string, args ...any) (*Bundle, error) {
		return nil, fmt.Errorf(format, args...)
	}

	le := binary.LittleEndian
	var head [16]byte
	if _, err := io.ReadFull(tr, head[:]); err != nil {
		return fail(err)
	}
	if string(head[:8]) != bundleMagic {
		return reject("index: not a pattern-index bundle (bad magic %q)", head[:8])
	}
	if version := le.Uint32(head[8:12]); version != BundleVersion {
		return reject("index: unsupported bundle version %d (want %d)", version, BundleVersion)
	}
	count := le.Uint32(head[12:16])
	if count == 0 || count > uint32(maxBundleMembers) {
		return reject("index: bundle member count %d outside [1, %d]", count, maxBundleMembers)
	}
	var fixed [20]byte // generation(8) + shard(4) + shards(4) + scheme length(4)
	if _, err := io.ReadFull(tr, fixed[:]); err != nil {
		return fail(err)
	}
	b.Generation = le.Uint64(fixed[:8])
	b.Shard.Shard = int(le.Uint32(fixed[8:12]))
	b.Shard.Shards = int(le.Uint32(fixed[12:16]))
	schemeLen := le.Uint32(fixed[16:20])
	if schemeLen > maxShardSchemeLen {
		return reject("index: bundle shard scheme tag longer than %d bytes", maxShardSchemeLen)
	}
	scheme := make([]byte, schemeLen)
	if _, err := io.ReadFull(tr, scheme); err != nil {
		return fail(err)
	}
	b.Shard.Scheme = string(scheme)
	var corpus [32]byte
	if _, err := io.ReadFull(tr, corpus[:]); err != nil {
		return fail(err)
	}
	if corpus != ([32]byte{}) {
		b.Shard.CorpusFingerprint = hex.EncodeToString(corpus[:])
	}
	if err := b.Shard.validate(); err != nil {
		return reject("index: reading bundle: %v", err)
	}

	var n [4]byte
	if _, err := io.ReadFull(tr, n[:]); err != nil {
		return fail(err)
	}
	nsubs := le.Uint32(n[:])
	if nsubs > maxBundleSubs {
		return reject("index: bundle subscription count %d exceeds %d", nsubs, maxBundleSubs)
	}
	b.Subs = make([][]byte, nsubs)
	for i := range b.Subs {
		if _, err := io.ReadFull(tr, n[:]); err != nil {
			return fail(err)
		}
		slen := le.Uint32(n[:])
		if slen > maxBundleSubBytes {
			return reject("index: bundle subscription record %d longer than %d bytes", i, maxBundleSubBytes)
		}
		b.Subs[i] = make([]byte, slen)
		if _, err := io.ReadFull(tr, b.Subs[i]); err != nil {
			return fail(err)
		}
	}

	manifest := make([]bundleManifestEntry, count)
	for i := range manifest {
		var entry [44]byte // kind(4) + length(8) + fingerprint(32)
		if _, err := io.ReadFull(tr, entry[:]); err != nil {
			return fail(err)
		}
		kind := PatternKind(le.Uint32(entry[:4]))
		if !kind.Valid() {
			return reject("index: bundle manifest names unknown pattern kind %d", kind)
		}
		if i > 0 && manifest[i-1].kind >= kind {
			return reject("index: bundle manifest kinds not strictly ascending (%v after %v)",
				kind, manifest[i-1].kind)
		}
		manifest[i].kind = kind
		manifest[i].length = le.Uint64(entry[4:12])
		copy(manifest[i].fingerprint[:], entry[12:])
	}

	b.Snaps = make([]*Snapshot, count)
	for i, entry := range manifest {
		// The buffer is sized from the declared length only up to a cap, so
		// a corrupted length ends in a short read, never a large allocation.
		// ReadFrom wants MinRead bytes free before each read, EOF included.
		data := bytes.NewBuffer(make([]byte, 0, min(entry.length, maxMemberPrealloc)+bytes.MinRead))
		if _, err := data.ReadFrom(io.LimitReader(tr, int64(entry.length))); err != nil {
			return fail(err)
		}
		snap, err := decodeSnapshot(data.Bytes())
		if err != nil {
			return reject("index: reading bundle %v member: %w", entry.kind, err)
		}
		if got := snap.Set.Kind(); got != entry.kind {
			return reject("index: bundle %v member actually holds %v patterns", entry.kind, got)
		}
		if got := snap.Set.digest(); got != entry.fingerprint {
			return reject("index: bundle %v member fingerprint %.6x... does not match manifest %.6x...",
				entry.kind, got[:], entry.fingerprint[:])
		}
		b.Snaps[i] = snap
	}

	sum := h.Sum(nil)
	var stored [32]byte
	if _, err := io.ReadFull(r, stored[:]); err != nil { // footer: not tee'd into the checksum
		return fail(err)
	}
	if !bytes.Equal(sum, stored[:]) {
		return reject("index: bundle corrupted: stream checksum mismatch")
	}
	var trailing [1]byte
	switch _, err := io.ReadFull(r, trailing[:]); err {
	case io.EOF:
		return b, nil
	case nil:
		return reject("index: bundle has trailing data after checksum footer")
	default:
		return fail(err)
	}
}
