package strsim

import "refrecon/internal/tokenizer"

// Soundex returns the classic 4-character Soundex code of the first
// alphabetic token of s ("Robert" -> "R163"). Soundex groups consonants by
// sound so that common misspellings of surnames collide; it is the oldest
// phonetic key used in record linkage (Newcombe et al., 1959 — the paper's
// reference [29]). An input with no letters yields "".
func Soundex(s string) string {
	norm := tokenizer.Normalize(s)
	var letters []byte
	for i := 0; i < len(norm); i++ {
		c := norm[i]
		if c >= 'a' && c <= 'z' {
			letters = append(letters, c)
		} else if len(letters) > 0 && (c == ' ' || c == ',') {
			break // first token only
		}
	}
	if len(letters) == 0 {
		return ""
	}
	code := func(c byte) byte {
		switch c {
		case 'b', 'f', 'p', 'v':
			return '1'
		case 'c', 'g', 'j', 'k', 'q', 's', 'x', 'z':
			return '2'
		case 'd', 't':
			return '3'
		case 'l':
			return '4'
		case 'm', 'n':
			return '5'
		case 'r':
			return '6'
		default:
			return 0 // vowels and h/w/y
		}
	}
	out := []byte{letters[0] - 'a' + 'A'}
	prev := code(letters[0])
	for _, c := range letters[1:] {
		d := code(c)
		switch {
		case d == 0:
			// Vowels reset the adjacency rule; h and w do not.
			if c != 'h' && c != 'w' {
				prev = 0
			}
		case d != prev:
			out = append(out, d)
			prev = d
			if len(out) == 4 {
				return string(out)
			}
		}
	}
	for len(out) < 4 {
		out = append(out, '0')
	}
	return string(out)
}
