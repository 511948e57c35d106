// Package emailaddr models email addresses for reference reconciliation.
//
// Email addresses act as near-keys for person references: two references
// sharing an address almost certainly denote the same person, and — per the
// paper's constraint 3 — one account on one server belongs to exactly one
// person. Beyond key equality, the *local part* of an address carries name
// evidence: "stonebraker@csail.mit.edu" supports merging with a reference
// named "Stonebraker, M." even though no attribute is shared verbatim. This
// package parses addresses and implements that cross-attribute comparison.
package emailaddr

import (
	"strings"

	"refrecon/internal/names"
	"refrecon/internal/strsim"
	"refrecon/internal/tokenizer"
)

// Address is a parsed email address. All fields are normalized lowercase.
type Address struct {
	Display string // optional display name ("Michael Stonebraker")
	Local   string // account name before '@' ("stonebraker")
	Domain  string // server after '@' ("csail.mit.edu")
}

// Parse interprets raw as one of the common header forms:
//
//	stonebraker@csail.mit.edu
//	<stonebraker@csail.mit.edu>
//	Michael Stonebraker <stonebraker@csail.mit.edu>
//	"Stonebraker, Michael" <stonebraker@csail.mit.edu>
//
// The second return value is false when no '@' could be located, in which
// case the whole input is preserved in Display.
func Parse(raw string) (Address, bool) {
	raw = strings.TrimSpace(raw)
	var a Address
	addrPart := raw
	if i := strings.LastIndexByte(raw, '<'); i >= 0 {
		j := strings.IndexByte(raw[i:], '>')
		if j > 0 {
			addrPart = raw[i+1 : i+j]
			a.Display = cleanDisplay(raw[:i])
		} else {
			addrPart = raw[i+1:]
			a.Display = cleanDisplay(raw[:i])
		}
	}
	at := strings.LastIndexByte(addrPart, '@')
	if at <= 0 || at == len(addrPart)-1 {
		a.Display = cleanDisplay(raw)
		return a, false
	}
	a.Local = tokenizer.Normalize(addrPart[:at])
	a.Domain = tokenizer.Normalize(addrPart[at+1:])
	a.Local = strings.ReplaceAll(a.Local, " ", "")
	a.Domain = strings.ReplaceAll(a.Domain, " ", "")
	// An account or server containing list or header syntax is not an
	// address: accepting it would let a Key() leak separators back into
	// rendered headers, where they re-parse as multiple mailboxes.
	if strings.ContainsAny(a.Local, ",;<>\"'@") || strings.ContainsAny(a.Domain, ",;<>\"'@") {
		a.Local, a.Domain = "", ""
		a.Display = cleanDisplay(raw)
		return a, false
	}
	return a, true
}

// cleanDisplay strips surrounding whitespace and quoting. The cutset form
// removes any mix of quotes and spaces in one pass, so cleaning is
// idempotent — display names survive a render/parse round trip unchanged.
func cleanDisplay(s string) string {
	return strings.Trim(s, "\"' \t\r\n")
}

// Key returns the canonical account key "local@domain", the identity the
// reconciler treats as a merge key. Empty when the address is empty.
func (a Address) Key() string {
	if a.Local == "" || a.Domain == "" {
		return ""
	}
	return a.Local + "@" + a.Domain
}

// Server returns the registrable server identity used by constraint 3
// ("a person has a unique account on an email server"). Subdomains are
// collapsed to the last two labels so that csail.mit.edu and mit.edu count
// as the same server.
func (a Address) Server() string {
	if a.Domain == "" {
		return ""
	}
	labels := strings.Split(a.Domain, ".")
	if len(labels) <= 2 {
		return a.Domain
	}
	return strings.Join(labels[len(labels)-2:], ".")
}

// IsZero reports whether no address component was parsed.
func (a Address) IsZero() bool { return a.Local == "" && a.Domain == "" }

// String renders the address; it includes the display name when present.
func (a Address) String() string {
	k := a.Key()
	if a.Display == "" {
		return k
	}
	if k == "" {
		return a.Display
	}
	return a.Display + " <" + k + ">"
}

// LocalTokens decomposes the local part into name-like tokens, splitting on
// separators and digit runs: "m.stonebraker42" yields ["m","stonebraker"].
func (a Address) LocalTokens() []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range a.Local {
		if r >= 'a' && r <= 'z' {
			cur.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return out
}

// Sim scores two addresses in [0,1]. Equal keys score 1. Same local part on
// different servers is strong evidence (people keep account names across
// providers); same server with similar local parts is moderate evidence.
// Every local part is treated as fully identifying; use SimRarity when
// population statistics are available.
func Sim(x, y Address) float64 {
	return SimRarity(x, y, nil)
}

// LocalRarityFunc weighs how identifying an account name is, in [0,1]:
// "stonebraker" is nearly unique, "cynthia" is shared by every Cynthia.
type LocalRarityFunc func(local string) float64

// SimRarity is Sim with rarity weighting of the same-local-different-server
// evidence (nil means rarity 1).
func SimRarity(x, y Address, rarity LocalRarityFunc) float64 {
	if x.IsZero() && y.IsZero() {
		return 1
	}
	if x.IsZero() || y.IsZero() {
		return 0
	}
	if x.Key() == y.Key() {
		return 1
	}
	localSim := strsim.JaroWinkler(x.Local, y.Local)
	switch {
	case x.Local == y.Local:
		r := 1.0
		if rarity != nil {
			r = rarity(x.Local)
		}
		return 0.55 + 0.3*r // same account name, different server
	case x.Server() == y.Server():
		// Same server, different accounts: constraint 3 territory. The
		// similarity itself stays low; the constraint logic handles the
		// hard negative.
		return 0.3 * localSim
	default:
		return 0.6 * localSim
	}
}

// RarityFunc weighs how identifying a (first-initial, surname) combination
// is, in [0,1]: 1 means unique in the population ("stonebraker"), small
// values mean common ("li"). initial is empty when only the surname is
// being judged. Comparators use it to keep surname-only account matches
// from gluing together everyone sharing a common family name.
type RarityFunc func(initial, surname string) float64

// NameSimRarity scores a person name string against an address in [0,1],
// implementing the paper's name-vs-email evidence: the local part is
// matched against the parsed name's components. "Stonebraker, M." vs
// "stonebraker@csail.mit.edu" scores high because the local part equals the
// surname; "mike" vs the same address scores low. rarity weighs how
// identifying a surname is (nil: every surname fully identifying).
func NameSimRarity(rawName string, a Address, rarity RarityFunc) float64 {
	if rarity == nil {
		rarity = func(string, string) float64 { return 1 }
	}
	return nameSim(rawName, a, rarity)
}

func nameSim(rawName string, a Address, rarity RarityFunc) float64 {
	if a.IsZero() {
		return 0
	}
	n := names.Parse(rawName)
	if n.IsEmpty() {
		return 0
	}
	toks := a.LocalTokens()
	if len(toks) == 0 {
		return 0
	}
	last := strings.ReplaceAll(n.Last, " ", "")
	first := n.First
	firstFull := first != "" && len(first) > 1
	best := 0.0
	upd := func(s float64) {
		if s > best {
			best = s
		}
	}

	// Multi-token local parts ("michael.stonebraker"): the surname token
	// must agree AND the given token must not contradict. A local part
	// that spells out a *different* given name ("ling.yuan" against
	// "Ming Yuan", or against the initial in "Yuan, M.") is decisive
	// negative evidence, not weak positive evidence.
	if len(toks) >= 2 && last != "" {
		lastParts := strings.Fields(n.Last)
		covered := make([]bool, len(toks))
		partsMatched := 0
		for _, lp := range lastParts {
			for j, u := range toks {
				if covered[j] {
					continue
				}
				if u == lp || (len(u) > 3 && strsim.JaroWinkler(u, lp) >= 0.95) {
					covered[j] = true
					partsMatched++
					break
				}
			}
		}
		if partsMatched < len(lastParts) {
			// Multi-part surnames may also appear fused ("garciamolina").
			for j, u := range toks {
				if !covered[j] && (u == last || (len(u) > 3 && strsim.JaroWinkler(u, last) >= 0.95)) {
					covered[j] = true
					partsMatched = len(lastParts)
					break
				}
			}
		}
		if partsMatched == len(lastParts) {
			agree, contradict, extraSurname := false, false, false
			for j, u := range toks {
				if covered[j] {
					continue
				}
				if first == "" {
					// No given name to check against: a long extra token
					// is an unexplained name part.
					if len(u) >= 4 {
						extraSurname = true
					}
					continue
				}
				switch {
				case u == first,
					len(u) == 1 && u[0] == first[0],
					len(u) > 1 && !firstFull && u[0] == first[0],
					names.Formal(u) == names.Formal(first):
					agree = true
				case len(u) == 1 && u[0] != first[0]:
					contradict = true
				case len(u) > 1 && !firstFull && u[0] != first[0]:
					contradict = true
				case len(u) > 1 && firstFull && strsim.JaroWinkler(u, first) < 0.90:
					if strsim.JaroWinkler(u, first) >= 0.6 || len(u) < 4 {
						// Shaped like a competing given name ("ling" vs
						// "ming"): decisive negative evidence.
						contradict = true
					} else {
						// A long token matching neither the given name
						// nor any surname part ("gonzalez" against "Andy
						// Henderson") is an unexplained extra name part:
						// weaker than a contradiction, but it blocks the
						// full-agreement score.
						extraSurname = true
					}
				}
			}
			switch {
			case contradict:
				return 0.3
			case agree && !extraSurname:
				return 1
			case agree:
				return 0.7
			default:
				// Surname matched, given name unknown: the structured
				// verdict caps anything the per-token heuristics below
				// would add.
				return 0.55 + 0.3*rarity("", last)
			}
		}
	}

	for _, t := range toks {
		// Bare surname as the account name ("stonebraker@..."): strong
		// evidence exactly to the extent the surname is identifying.
		if last != "" && (t == last || (len(t) > 3 && strsim.JaroWinkler(t, last) >= 0.95)) {
			upd(0.55 + 0.35*rarity("", last))
		}
		// Full given name as the account name ("eugene@..."): given names
		// repeat across people, so this is moderate evidence only —
		// never enough to cross a merge gate by itself.
		if firstFull && (t == first || names.Formal(t) == names.Formal(first)) {
			upd(0.6)
		}
		// Initial+surname fusions ("mstonebraker", "stonebrakerm"):
		// equivalent information to the citation form "Stonebraker, M.".
		if last != "" && first != "" {
			ini := string(first[0])
			for _, f := range [3]string{ini + last, last + ini, first + last} {
				exact := t == f
				near := !exact && len(t) > 4 && strsim.JaroWinkler(t, f) >= 0.96
				if !exact && !near {
					continue
				}
				s := 0.75 + 0.25*rarity(ini, last)
				if f == first+last && firstFull {
					s = 1 // full given name + surname fused: identifying
				}
				if near {
					s -= 0.1
				}
				upd(s)
			}
		}
		// Typo-tolerant fallback against surname and given name.
		if last != "" {
			if s := strsim.JaroWinkler(t, last); s >= 0.93 {
				upd((0.5 + 0.35*rarity("", last)) * s)
			} else {
				upd(0.4 * s)
			}
		}
		if firstFull {
			upd(0.4 * strsim.JaroWinkler(t, first))
		}
	}
	return best
}
