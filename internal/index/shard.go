package index

import (
	"encoding/hex"
	"fmt"
)

// ShardScheme names the vocabulary partition function used by sharded
// bundles: FNV-1a (64-bit) over the canonical term string, modulo the
// shard count. The tag travels in every shard bundle so a gateway can
// refuse to route queries across members that partitioned differently.
const ShardScheme = "fnv1a64/term"

// maxShardSchemeLen bounds a stored scheme tag; longer length prefixes
// can only come from corrupted input and are rejected before allocating.
const maxShardSchemeLen = 64

// ShardInfo identifies which slice of a partitioned vocabulary a bundle
// holds. An unsharded artifact reads as the whole partition: shard 0 of
// 1 with no scheme. CorpusFingerprint is the hex SHA-256 checksum of the
// corpus the patterns were mined from ("" when unrecorded); members of
// one shard set share it, so mixing bundles mined from different corpora
// is detectable without decoding a single pattern.
type ShardInfo struct {
	Shard             int
	Shards            int
	Scheme            string
	CorpusFingerprint string
}

// Sharded reports whether the info describes a true slice of a larger
// partition rather than a whole (unsharded) store.
func (si ShardInfo) Sharded() bool { return si.Shards > 1 }

// validate rejects impossible shard coordinates before they are written
// to or trusted from disk.
func (si ShardInfo) validate() error {
	if si.Shards < 1 {
		return fmt.Errorf("index: shard count %d < 1", si.Shards)
	}
	if si.Shard < 0 || si.Shard >= si.Shards {
		return fmt.Errorf("index: shard index %d outside [0, %d)", si.Shard, si.Shards)
	}
	if len(si.Scheme) > maxShardSchemeLen {
		return fmt.Errorf("index: shard scheme tag longer than %d bytes", maxShardSchemeLen)
	}
	if si.Shards > 1 && si.Scheme == "" {
		return fmt.Errorf("index: sharded bundle needs a partition-scheme tag")
	}
	if si.CorpusFingerprint != "" {
		if fp, err := hex.DecodeString(si.CorpusFingerprint); err != nil || len(fp) != 32 {
			return fmt.Errorf("index: corpus fingerprint is not a hex SHA-256")
		}
	}
	return nil
}

// TermShard maps a canonical term string to its owning shard under
// ShardScheme: FNV-1a 64-bit over the term's bytes, modulo shards. Every
// component of the cluster — stmine splitting the vocabulary, stserve
// reporting identity, stgate routing point lookups — must agree on this
// function, so it is defined exactly once.
func TermShard(term string, shards int) int {
	if shards <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(term); i++ {
		h ^= uint64(term[i])
		h *= prime64
	}
	return int(h % uint64(shards))
}

// SplitSets partitions mined pattern sets into shards by TermShard over
// each term's canonical string (term resolves interned IDs, normally
// Dictionary.Term). Every shard receives one PatternSet per input kind,
// in the same kind order, even when a shard owns no terms of a kind —
// a shard bundle therefore always has the same member shape as the
// unsharded bundle it was split from. Pattern slices are shared with the
// input sets, not copied.
func SplitSets(sets []*PatternSet, term func(id int) string, shards int) ([][]*PatternSet, error) {
	if shards < 1 {
		return nil, fmt.Errorf("index: cannot split into %d shards", shards)
	}
	out := make([][]*PatternSet, shards)
	for _, s := range sets {
		parts := kinds[s.kind].regroup(s, shards, func(id int) (int, int) {
			return TermShard(term(id), shards), id
		})
		for i := range out {
			out[i] = append(out[i], parts[i])
		}
	}
	return out, nil
}
