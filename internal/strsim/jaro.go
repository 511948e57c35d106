package strsim

import "refrecon/internal/tokenizer"

// jaroScratch returns the Jaro similarity of two rune strings. Jaro
// similarity counts matching runes within a sliding window of half the
// longer string's length and penalizes transpositions; it behaves well on
// short strings such as personal names, which is why it (and its Winkler
// extension) is the de-facto standard comparator in record linkage.
func jaroScratch(sc *scratch, ra, rb []rune) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := max(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	aMatched := boolRow(&sc.am, la)
	bMatched := boolRow(&sc.bm, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := max(0, i-window)
		hi := min(lb-1, i+window)
		for j := lo; j <= hi; j++ {
			if bMatched[j] || ra[i] != rb[j] {
				continue
			}
			aMatched[i] = true
			bMatched[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions between the matched subsequences.
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !aMatched[i] {
			continue
		}
		for !bMatched[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// JaroWinkler boosts the Jaro similarity for strings that share a common
// prefix of up to four runes, using the standard scaling factor p = 0.1.
func JaroWinkler(a, b string) float64 {
	return jaroWinklerP(a, b, 0.1)
}

// jaroWinklerP is JaroWinkler with an explicit prefix scale p. The result
// is clamped to [0, 1]; p values above 0.25 would allow scores over 1 and
// are capped.
func jaroWinklerP(a, b string, p float64) float64 {
	if p < 0 {
		p = 0
	}
	if p > 0.25 {
		p = 0.25
	}
	sc := getScratch()
	sc.ra = tokenizer.AppendNormalizedRunes(sc.ra[:0], a)
	sc.rb = tokenizer.AppendNormalizedRunes(sc.rb[:0], b)
	s := winklerScratch(sc, p)
	putScratch(sc)
	return s
}

// winklerScratch scores the two normalized rune strings in sc.ra and sc.rb.
func winklerScratch(sc *scratch, p float64) float64 {
	ra, rb := sc.ra, sc.rb
	j := jaroScratch(sc, ra, rb)
	l := 0
	for l < len(ra) && l < len(rb) && l < 4 && ra[l] == rb[l] {
		l++
	}
	s := j + float64(l)*p*(1-j)
	if s > 1 {
		s = 1
	}
	return s
}

// JaroWinklerTokens is JaroWinkler for two tokens of tokenizer.Words. An
// all-ASCII token is already in normal form — lower-case letters and
// digits — so it is compared as it stands, without the normalization pass
// that is most of JaroWinkler's cost on short strings. A token with any
// other rune takes the normalizing path: Words output is not always a
// fixed point of normalization (U+212B and U+1E9E lower-case into the fold
// table), and the two paths must agree to the bit.
func JaroWinklerTokens(x, y string) float64 {
	sc := getScratch()
	s := winklerTokens(sc, x, y)
	putScratch(sc)
	return s
}

// winklerTokens is JaroWinklerTokens on a borrowed scratch; it uses only
// the rune buffers and match flags.
func winklerTokens(sc *scratch, x, y string) float64 {
	var okX, okY bool
	sc.ra, okX = appendASCII(sc.ra[:0], x)
	sc.rb, okY = appendASCII(sc.rb[:0], y)
	if !okX || !okY {
		sc.ra = tokenizer.AppendNormalizedRunes(sc.ra[:0], x)
		sc.rb = tokenizer.AppendNormalizedRunes(sc.rb[:0], y)
	}
	return winklerScratch(sc, 0.1)
}
