// Package tokenizer provides Unicode-aware tokenization and string
// normalization used throughout the reconciliation pipeline.
//
// All similarity functions in this repository compare *normalized* token
// streams rather than raw strings, so that inconsequential differences in
// case, punctuation, and whitespace never influence a reconciliation
// decision.
package tokenizer

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Normalize lowercases s, folds common diacritics to their ASCII base
// letters, and collapses runs of whitespace into single spaces. It is the
// canonical pre-processing step applied before any string comparison.
func Normalize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	prevSpace := false
	for _, r := range s {
		r = foldRune(r)
		if unicode.IsSpace(r) {
			if !prevSpace && b.Len() > 0 {
				b.WriteByte(' ')
				prevSpace = true
			}
			continue
		}
		prevSpace = false
		b.WriteRune(unicode.ToLower(r))
	}
	return strings.TrimRight(b.String(), " ")
}

// AppendNormalizedRunes appends the normalized runes of s to dst and
// returns the extended slice: exactly the runes of Normalize(s), but
// written into a caller-owned buffer so that the strsim comparators can
// normalize without allocating a string per call.
func AppendNormalizedRunes(dst []rune, s string) []rune {
	start := len(dst)
	prevSpace := false
	for i := 0; i < len(s); {
		r, w, space := rune(s[i]), 1, false
		if r < utf8.RuneSelf {
			// ASCII, nearly every rune of the data: the answers of
			// foldRune, unicode.IsSpace and unicode.ToLower, on the byte.
			space = r == ' ' || (r >= '\t' && r <= '\r')
			if r >= 'A' && r <= 'Z' {
				r += 'a' - 'A'
			}
		} else {
			r, w = utf8.DecodeRuneInString(s[i:])
			r = foldRune(r)
			space = unicode.IsSpace(r)
			r = unicode.ToLower(r)
		}
		i += w
		if space {
			if !prevSpace && len(dst) > start {
				dst = append(dst, ' ')
				prevSpace = true
			}
			continue
		}
		prevSpace = false
		dst = append(dst, r)
	}
	if len(dst) > start && dst[len(dst)-1] == ' ' {
		dst = dst[:len(dst)-1]
	}
	return dst
}

// foldRune maps accented Latin letters onto their unaccented base letter.
// The table covers the Latin-1 supplement and the most common Latin
// Extended-A codepoints, which suffices for the name data this system
// processes. Unknown runes pass through unchanged.
func foldRune(r rune) rune {
	if r < utf8.RuneSelf {
		return r
	}
	switch {
	case r >= 'À' && r <= 'Å', r >= 'à' && r <= 'å', r == 'Ā', r == 'ā', r == 'Ă', r == 'ă', r == 'Ą', r == 'ą':
		if unicode.IsUpper(r) {
			return 'A'
		}
		return 'a'
	case r == 'Ç', r == 'ç', r == 'Ć', r == 'ć', r == 'Č', r == 'č':
		if unicode.IsUpper(r) {
			return 'C'
		}
		return 'c'
	case r >= 'È' && r <= 'Ë', r >= 'è' && r <= 'ë', r == 'Ē', r == 'ē', r == 'Ė', r == 'ė', r == 'Ę', r == 'ę', r == 'Ě', r == 'ě':
		if unicode.IsUpper(r) {
			return 'E'
		}
		return 'e'
	case r >= 'Ì' && r <= 'Ï', r >= 'ì' && r <= 'ï', r == 'Ī', r == 'ī', r == 'İ':
		if unicode.IsUpper(r) {
			return 'I'
		}
		return 'i'
	case r == 'Ñ', r == 'ñ', r == 'Ń', r == 'ń', r == 'Ň', r == 'ň':
		if unicode.IsUpper(r) {
			return 'N'
		}
		return 'n'
	case r >= 'Ò' && r <= 'Ö', r >= 'ò' && r <= 'ö', r == 'Ø', r == 'ø', r == 'Ō', r == 'ō':
		if unicode.IsUpper(r) {
			return 'O'
		}
		return 'o'
	case r >= 'Ù' && r <= 'Ü', r >= 'ù' && r <= 'ü', r == 'Ū', r == 'ū', r == 'Ů', r == 'ů':
		if unicode.IsUpper(r) {
			return 'U'
		}
		return 'u'
	case r == 'Ý', r == 'ý', r == 'ÿ', r == 'Ÿ':
		if unicode.IsUpper(r) {
			return 'Y'
		}
		return 'y'
	case r == 'Š', r == 'š', r == 'Ś', r == 'ś':
		if unicode.IsUpper(r) {
			return 'S'
		}
		return 's'
	case r == 'Ž', r == 'ž', r == 'Ź', r == 'ź', r == 'Ż', r == 'ż':
		if unicode.IsUpper(r) {
			return 'Z'
		}
		return 'z'
	case r == 'ß':
		return 's' // approximate; good enough for matching
	case r == 'Ł', r == 'ł':
		if unicode.IsUpper(r) {
			return 'L'
		}
		return 'l'
	case r == 'Đ', r == 'đ':
		if unicode.IsUpper(r) {
			return 'D'
		}
		return 'd'
	}
	return r
}

// Words splits s into normalized alphanumeric tokens. Any rune that is not
// a letter or digit acts as a separator. Empty input yields a nil slice.
// All tokens share one backing string, so the call costs a constant number
// of allocations instead of one per token.
func Words(s string) []string {
	var b strings.Builder
	b.Grow(len(s))
	var bounds []int // flattened (start, end) byte-offset pairs
	inTok := false
	for i := 0; i < len(s); {
		r, w, alnum := rune(s[i]), 1, false
		if r < utf8.RuneSelf {
			// ASCII: letter-or-digit and lower-casing decided on the byte.
			if r >= 'A' && r <= 'Z' {
				r += 'a' - 'A'
			}
			alnum = (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9')
		} else {
			r, w = utf8.DecodeRuneInString(s[i:])
			r = foldRune(r)
			alnum = unicode.IsLetter(r) || unicode.IsDigit(r)
			r = unicode.ToLower(r)
		}
		i += w
		if alnum {
			if !inTok {
				bounds = append(bounds, b.Len())
				inTok = true
			}
			b.WriteRune(r)
		} else if inTok {
			bounds = append(bounds, b.Len())
			inTok = false
		}
	}
	if inTok {
		bounds = append(bounds, b.Len())
	}
	if len(bounds) == 0 {
		return nil
	}
	backing := b.String()
	out := make([]string, 0, len(bounds)/2)
	for i := 0; i < len(bounds); i += 2 {
		out = append(out, backing[bounds[i]:bounds[i+1]])
	}
	return out
}

// stopwords are tokens carrying essentially no discriminative power in
// publication titles and venue names. They are removed by ContentWords.
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "as": true, "at": true,
	"by": true, "for": true, "from": true, "in": true, "into": true,
	"of": true, "on": true, "or": true, "the": true, "to": true,
	"with": true, "via": true,
}

// ContentWords returns Words(s) with stopwords removed. If every token is a
// stopword, the full token list is returned instead so that short strings
// like "of" are still comparable.
func ContentWords(s string) []string {
	ws := Words(s)
	out := ws[:0:0]
	for _, w := range ws {
		if !stopwords[w] {
			out = append(out, w)
		}
	}
	if len(out) == 0 {
		return ws
	}
	return out
}

// EqualFolded reports whether two strings are identical after Normalize.
func EqualFolded(a, b string) bool { return Normalize(a) == Normalize(b) }
