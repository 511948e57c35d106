// Package strsim implements the string similarity measures used as the
// elementary evidence in reference reconciliation: the Damerau edit
// distance, the Jaro-Winkler measure popular in record linkage, token-set
// measures (Jaccard, Dice, overlap), character n-gram similarity, TF-IDF
// weighted cosine, and the Monge-Elkan hybrid.
//
// Every exported similarity function returns a score in [0, 1], is
// symmetric in its arguments, and returns 1 for equal inputs. Scores are
// computed over normalized forms (see package tokenizer), so callers may
// pass raw strings.
//
// The comparators are allocation-free in steady state: rune conversions,
// match tables and match flags live in pooled scratch buffers (see
// scratch.go), a property the alloc regression tests enforce.
package strsim

import (
	"slices"

	"refrecon/internal/tokenizer"
)

// damerauScratch returns the optimal-string-alignment distance between ra
// and rb: the minimum number of single-rune insertions, deletions,
// substitutions and adjacent transpositions, no substring edited twice.
// Transpositions are the dominant typo class in names and titles.
//
// It is Hyyrö's bit-parallel kernel (2003): the shorter string is the
// pattern, held as one bit per rune in 64-rune blocks, and each text rune
// advances every block by a few word operations instead of filling a DP
// row. Per block, vp/vn are the vertical +1/-1 deltas of the DP column,
// d0 marks its diagonal zero deltas, and pm is the previous text rune's
// match word, which the transposition term reads. The horizontal deltas
// carry out of a block's top bit into the next block's bottom one, and the
// addition's carry rides on hn (a carry leaving a block sets its top hn
// bit). The distance is the last pattern row, tracked in the last block.
func damerauScratch(sc *scratch, ra, rb []rune) int {
	if len(ra) > len(rb) {
		ra, rb = rb, ra
	}
	m := len(ra)
	if m == 0 {
		return len(rb)
	}
	words := (m + 63) / 64
	sc.osaMatch(ra, words)
	if cap(sc.osa) < words {
		sc.osa = make([]osaBlock, words)
	}
	blocks := sc.osa[:words]
	for w := range blocks {
		blocks[w] = osaBlock{vp: ^uint64(0)}
	}
	lastBit := uint(m-1) % 64
	dist := m
	for _, r := range rb {
		row := sc.osaRow(r, words)
		hpCarry, hnCarry := uint64(1), uint64(0)
		var d0Below, pmBelow uint64 // the block below: its d0 before this rune, its match word for it
		for w := range blocks {
			b := &blocks[w]
			var pm uint64
			if row >= 0 {
				pm = sc.peq[row+w]
			}
			tr := ((^b.d0&pm)<<1 | (^d0Below&pmBelow)>>63) & b.pm
			d0Below, pmBelow = b.d0, pm
			x := pm | hnCarry
			d0 := (((x & b.vp) + b.vp) ^ b.vp) | x | b.vn | tr
			hp := b.vn | ^(d0 | b.vp)
			hn := d0 & b.vp
			if w == words-1 {
				dist += int(hp>>lastBit&1) - int(hn>>lastBit&1)
			}
			hp, hpCarry = hp<<1|hpCarry, hp>>63
			hn, hnCarry = hn<<1|hnCarry, hn>>63
			*b = osaBlock{vp: hn | ^(d0 | hp), vn: hp & d0, d0: d0, pm: pm}
		}
	}
	return dist
}

// osaBlock is one 64-rune block of damerauScratch's state.
type osaBlock struct{ vp, vn, d0, pm uint64 }

// osaMatch fills the match table for pattern p: per distinct rune, in
// peqRunes order, a row of words blocks with bit i set where p[i] is that
// rune. peqASCII maps an ASCII rune to 1 + its row index (0: absent).
func (sc *scratch) osaMatch(p []rune, words int) {
	clear(sc.peqASCII[:])
	sc.peqRunes, sc.peq = sc.peqRunes[:0], sc.peq[:0]
	for i, r := range p {
		row := sc.osaRow(r, words)
		if row < 0 {
			row = len(sc.peq)
			if r < 128 {
				sc.peqASCII[r] = int32(len(sc.peqRunes) + 1)
			}
			sc.peqRunes = append(sc.peqRunes, r)
			sc.peq = append(sc.peq, make([]uint64, words)...)
		}
		sc.peq[row+i/64] |= 1 << (i % 64)
	}
}

// osaRow returns the offset of r's row in the match table, negative when
// the pattern does not contain r.
func (sc *scratch) osaRow(r rune, words int) int {
	if r < 128 {
		return int(sc.peqASCII[r]-1) * words
	}
	return slices.Index(sc.peqRunes, r) * words
}

// DamerauSim converts the Damerau distance of the normalized inputs into a
// similarity in [0, 1]: 1 - dist/max(len). Two empty strings are
// considered identical (similarity 1).
func DamerauSim(a, b string) float64 {
	sc := getScratch()
	sc.ra = tokenizer.AppendNormalizedRunes(sc.ra[:0], a)
	sc.rb = tokenizer.AppendNormalizedRunes(sc.rb[:0], b)
	s := editSim(damerauScratch(sc, sc.ra, sc.rb), len(sc.ra), len(sc.rb))
	putScratch(sc)
	return s
}

func editSim(dist, la, lb int) float64 {
	if la == 0 && lb == 0 {
		return 1
	}
	return 1 - float64(dist)/float64(max(la, lb))
}
