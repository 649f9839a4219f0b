// Package textproc provides the tokenization pipeline used to turn raw
// document text into the term streams consumed by the burstiness miners:
// Unicode-aware word splitting, case folding, and stopword removal.
package textproc

import (
	"strings"
	"unicode"
)

// DefaultStopwords is the compact English stopword list, suited to news
// text, that every tokenizer drops.
var DefaultStopwords = []string{
	"a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "from",
	"had", "has", "have", "he", "her", "his", "i", "in", "is", "it", "its",
	"may", "more", "not", "of", "on", "or", "she", "that", "the", "their",
	"they", "this", "to", "was", "were", "which", "will", "with", "would",
}

// Tokens shorter than minLen or longer than maxLen runes are dropped.
const (
	minLen = 2
	maxLen = 40
)

// Tokenizer splits text into normalized terms. There is one pipeline and
// no way to configure another: bundle portability, shard routing and
// subscription normalization all assume every process normalizes terms
// identically.
type Tokenizer struct {
	stop map[string]struct{}
}

// NewTokenizer builds the tokenizer.
func NewTokenizer() *Tokenizer {
	t := &Tokenizer{stop: make(map[string]struct{}, len(DefaultStopwords))}
	for _, w := range DefaultStopwords {
		t.stop[w] = struct{}{}
	}
	return t
}

// Tokenize splits text into lowercase terms, dropping stopwords, tokens
// outside the length bounds, and purely numeric tokens. Splitting happens
// at any rune that is neither a letter nor a digit, except that single
// apostrophes and hyphens inside a word are removed rather than treated
// as separators ("mid-scale" → "midscale").
func (t *Tokenizer) Tokenize(text string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		tok := b.String()
		b.Reset()
		n := len([]rune(tok))
		if n < minLen || n > maxLen {
			return
		}
		if _, bad := t.stop[tok]; bad {
			return
		}
		if isNumeric(tok) {
			return
		}
		out = append(out, tok)
	}
	runes := []rune(text)
	for i, r := range runes {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		case (r == '\'' || r == '-') && b.Len() > 0 && i+1 < len(runes) &&
			(unicode.IsLetter(runes[i+1]) || unicode.IsDigit(runes[i+1])):
			// Interior apostrophe/hyphen: join the two halves.
		default:
			flush()
		}
	}
	flush()
	return out
}

func isNumeric(s string) bool {
	for _, r := range s {
		if !unicode.IsDigit(r) {
			return false
		}
	}
	return len(s) > 0
}
