// Package names models personal names for reference reconciliation.
//
// Person references in complex information spaces mention the same person
// under many conventions: "Robert S. Epstein", "Epstein, R.S.", "R. Epstein",
// "mike". This package parses those forms into structured names and provides
// the comparison primitives the reconciler's Person similarity function is
// built from: compatibility of abbreviated forms, typo-tolerant similarity,
// and the hard *incompatibility* predicate behind the paper's constraint 2
// ("two persons with the same first name but completely different last name
// ... are distinct").
package names

import (
	"strings"

	"refrecon/internal/strsim"
	"refrecon/internal/tokenizer"
)

// Name is a parsed personal name. All components are normalized
// (lowercase, accent-folded). Initials are stored as single letters without
// periods. A component may be empty when the source string did not carry
// it, which is common for references extracted from emails ("mike") and
// citations ("Wong, E.").
type Name struct {
	First  string   // given name or initial ("robert", "r")
	Middle []string // middle names or initials, in order
	Last   string   // family name ("epstein"); may be multi-word ("van gogh")
	Raw    string   // the normalized full input
	words  []string // tokenizer.Words(Raw), for ParsedSimilarity
	canon  string   // String(), for ParsedSimilarity
}

// suffixes dropped during parsing.
var suffixes = map[string]bool{
	"jr": true, "sr": true, "ii": true, "iii": true, "iv": true,
	"phd": true, "md": true,
}

// particles that belong to the surname ("van", "de", ...).
var particles = map[string]bool{
	"van": true, "von": true, "de": true, "del": true, "della": true,
	"di": true, "da": true, "der": true, "den": true, "la": true,
	"le": true, "al": true, "el": true, "bin": true, "ter": true,
	"mac": false, // Mac/Mc are prefixes fused into the token, not particles
}

// Parse interprets a raw name string. It understands both
// "Last, First Middle" (comma form, ubiquitous in citations) and
// "First Middle Last" (natural form), multi-token surnames introduced by
// particles, fused initials ("R.S." -> "r","s"), and single-token names
// (treated as a first name, since emails usually show given names or
// nicknames). An empty or punctuation-only input yields a zero Name.
func Parse(raw string) Name {
	n := parse(raw)
	n.words, n.canon = tokenizer.Words(n.Raw), n.String()
	return n
}

func parse(raw string) Name {
	n := Name{Raw: tokenizer.Normalize(raw)}
	if i := strings.IndexByte(raw, ','); i >= 0 {
		// "Last, First M."
		last := tokens(raw[:i])
		rest := tokens(raw[i+1:])
		n.Last = strings.Join(last, " ")
		if len(rest) > 0 {
			n.First = rest[0]
			n.Middle = rest[1:]
		}
		return n
	}
	toks := tokens(raw)
	switch len(toks) {
	case 0:
		return n
	case 1:
		n.First = toks[0]
		return n
	}
	// Natural order: last token(s) form the surname; pull preceding
	// particles into it.
	lastStart := len(toks) - 1
	for lastStart-1 > 0 && particles[toks[lastStart-1]] {
		lastStart--
	}
	n.Last = strings.Join(toks[lastStart:], " ")
	n.First = toks[0]
	n.Middle = toks[1:lastStart]
	return n
}

// tokens splits raw into normalized name tokens, expanding fused initials
// ("R.S." becomes "r", "s"; "RS" does not, since it could be a name),
// keeping hyphenated names together ("Garcia-Molina" is one token,
// "garcia molina"), and dropping suffixes.
func tokens(raw string) []string {
	var out []string
	// Split on whitespace first so we can detect dotted-initial groups.
	for _, field := range strings.Fields(raw) {
		hasDot := strings.ContainsAny(field, ".")
		if strings.ContainsRune(field, '-') {
			// A hyphenated name is a single component: splitting
			// "Garcia-Molina" would demote "garcia" to a middle name and
			// break surname matching.
			parts := tokenizer.Words(field)
			if len(parts) > 1 && !allSingleLetters(parts) {
				joined := strings.Join(parts, " ")
				if !suffixes[joined] {
					out = append(out, joined)
				}
				continue
			}
		}
		ws := tokenizer.Words(field)
		for _, w := range ws {
			if suffixes[w] {
				continue
			}
			if hasDot && len(ws) > 1 && allSingleLetters(ws) {
				out = append(out, w) // each dotted letter is an initial
				continue
			}
			if hasDot && len(w) <= 2 && len(ws) == 1 && isAlpha(w) && len(w) == 2 {
				// "Rs." style fused pair without inner dots is ambiguous;
				// keep as-is.
				out = append(out, w)
				continue
			}
			out = append(out, w)
		}
	}
	return out
}

func allSingleLetters(ws []string) bool {
	for _, w := range ws {
		if len(w) != 1 {
			return false
		}
	}
	return true
}

func isAlpha(s string) bool {
	for _, r := range s {
		if r < 'a' || r > 'z' {
			return false
		}
	}
	return true
}

// IsInitial reports whether the component is a single-letter abbreviation.
func IsInitial(comp string) bool { return len([]rune(comp)) == 1 }

// IsFull reports whether the name has both a non-initial first name and a
// last name — the paper's notion of a "full name", required before
// strong-boolean evidence may push two person references together.
func (n Name) IsFull() bool {
	return n.Last != "" && n.First != "" && !IsInitial(n.First)
}

// IsEmpty reports whether nothing was parsed.
func (n Name) IsEmpty() bool { return n.First == "" && n.Last == "" }

// String renders the name in "first middle last" order.
func (n Name) String() string {
	parts := make([]string, 0, 2+len(n.Middle))
	if n.First != "" {
		parts = append(parts, n.First)
	}
	parts = append(parts, n.Middle...)
	if n.Last != "" {
		parts = append(parts, n.Last)
	}
	return strings.Join(parts, " ")
}

// nicknames maps common English diminutives to their formal given names.
// The table is deliberately small: it covers the nicknames that actually
// show up in email display names. Lookups are tried in both directions.
var nicknames = map[string]string{
	"mike": "michael", "bob": "robert", "rob": "robert", "bill": "william",
	"will": "william", "dick": "richard", "rick": "richard", "liz": "elizabeth",
	"beth": "elizabeth", "jim": "james", "tom": "thomas", "dave": "david",
	"dan": "daniel", "steve": "stephen", "tony": "anthony", "alex": "alexander",
	"sam": "samuel", "matt": "matthew", "chris": "christopher", "joe": "joseph",
	"jeff": "jeffrey", "andy": "andrew", "ed": "edward", "ted": "edward",
	"kate": "katherine", "kathy": "katherine", "jen": "jennifer",
	"jenny": "jennifer", "sue": "susan", "pat": "patricia", "pete": "peter",
	"greg": "gregory", "fred": "frederick", "ben": "benjamin",
	"nick": "nicholas", "ray": "raymond", "ron": "ronald", "don": "donald",
	"tim": "timothy", "ken": "kenneth", "larry": "lawrence",
}

// Formal returns the formal given name behind a known nickname ("mike" ->
// "michael"), or the input itself when no nickname is known.
func Formal(given string) string {
	if f, ok := nicknames[given]; ok {
		return f
	}
	return given
}

// formalToNick is the reverse of the nicknames table; when several
// nicknames share a formal name the lexicographically smallest wins, so
// the mapping is deterministic.
var formalToNick = func() map[string]string {
	m := make(map[string]string, len(nicknames))
	for nick, formal := range nicknames {
		if cur, ok := m[formal]; !ok || nick < cur {
			m[formal] = nick
		}
	}
	return m
}()

// Nickname returns a common diminutive of a formal given name ("michael"
// -> "mike"), or "" when none is known.
func Nickname(formal string) string { return formalToNick[formal] }

// nicknameMatch reports whether a and b are related through the nickname
// table ("mike" ~ "michael"), including nickname-to-nickname via a shared
// formal name ("bob" ~ "rob").
func nicknameMatch(a, b string) bool {
	fa, fb := a, b
	if f, ok := nicknames[a]; ok {
		fa = f
	}
	if f, ok := nicknames[b]; ok {
		fb = f
	}
	return fa == fb
}

// componentCompatible reports whether two given-name components could
// denote the same name: equal, one is the initial of the other, a known
// nickname pair, a prefix diminutive ("stef"/"stefano"), or a very close
// typo (Jaro-Winkler above 0.93, e.g. "micheal"/"michael").
func componentCompatible(a, b string) bool {
	if a == "" || b == "" {
		return true // missing information is not contradictory
	}
	if a == b {
		return true
	}
	if IsInitial(a) || IsInitial(b) {
		return a[0] == b[0]
	}
	if nicknameMatch(a, b) {
		return true
	}
	// Prefix diminutive: the shorter (>= 3 runes) is a prefix of the longer.
	short, long := a, b
	if len(short) > len(long) {
		short, long = long, short
	}
	if len(short) >= 3 && strings.HasPrefix(long, short) {
		return true
	}
	return strsim.JaroWinkler(a, b) >= 0.93
}

// Compatible reports whether two parsed names could plausibly denote the
// same person: their last names must agree (exactly or by close typo) when
// both are present, and their first/middle components must not contradict
// under abbreviation.
func Compatible(a, b Name) bool {
	if a.IsEmpty() || b.IsEmpty() {
		return true
	}
	if a.Last != "" && b.Last != "" {
		if !lastNameClose(a.Last, b.Last) {
			return false
		}
	}
	if !componentCompatible(a.First, b.First) {
		// One reference's "first" may be the other's surname when one side
		// is a bare token ("stonebraker" alone); allow first-vs-last match.
		if !(a.Last == "" && componentCompatible(a.First, b.Last)) &&
			!(b.Last == "" && componentCompatible(b.First, a.Last)) {
			return false
		}
	}
	return true
}

func lastNameClose(a, b string) bool {
	if a == b {
		return true
	}
	return strsim.JaroWinkler(a, b) >= 0.92
}

// ParsedSimilarity scores two parsed names in [0,1] with name-specific
// semantics layered over generic string similarity:
//
//   - exact normalized equality scores 1;
//   - agreeing last names with compatible (possibly abbreviated) first
//     names score highly, with full-name agreement above initial-only
//     agreement;
//   - incompatible names score near 0 regardless of surface similarity
//     ("Matt" vs "Michael Stonebraker").
func ParsedSimilarity(a, b Name) float64 {
	if a.IsEmpty() && b.IsEmpty() {
		return 1
	}
	if a.IsEmpty() || b.IsEmpty() {
		return 0
	}
	if bareGiven(a) && bareGiven(b) {
		// Two bare given names ("Angela" vs "Angela") agreeing is NOT
		// identifying — many people share a first name — so even exact
		// equality stays below the merge threshold and needs
		// corroborating evidence (a shared email, common contacts).
		if a.First == b.First || Formal(a.First) == Formal(b.First) {
			return 0.78
		}
		return 0.5 * strsim.JaroWinkler(a.First, b.First)
	}
	if a.Raw != "" && a.Raw == b.Raw {
		return 1
	}
	if a.canon == b.canon {
		return 1
	}
	if Incompatible(a, b) {
		// Hard contradiction: surface similarity is irrelevant.
		return 0.05 * strsim.JaroWinkler(a.Raw, b.Raw)
	}
	if !Compatible(a, b) {
		// Not contradictory enough for the constraint, but no agreement.
		return 0.3 * strsim.MongeElkanTokens(a.words, b.words)
	}
	// Compatible names: score by how much affirmative agreement exists.
	switch {
	case a.Last != "" && b.Last != "":
		base := 0.6 * strsim.JaroWinkler(a.Last, b.Last)
		if a.First != "" && b.First != "" {
			if !IsInitial(a.First) && !IsInitial(b.First) && componentCompatible(a.First, b.First) {
				base += 0.35 // full first names agree
			} else {
				// Initial-level agreement ("Epstein, R.S." vs "Robert
				// Epstein") deliberately lands just BELOW the 0.85 merge
				// threshold: a surname plus an initial is ambiguous, so
				// reconciliation must come from corroborating evidence —
				// a shared article (+β), common contacts (+γ), or an
				// email. This is what makes the association evidence of
				// the paper matter.
				base += 0.2
			}
			if middleAgree(a, b) {
				base += 0.05
			}
		} else {
			base += 0.1 // surname-only match: weak
		}
		if base > 1 {
			base = 1
		}
		return base
	default:
		// At least one side lacks a surname; rely on best component match.
		best := 0.0
		for _, x := range componentsOf(a) {
			for _, y := range componentsOf(b) {
				if s := componentSim(x, y); s > best {
					best = s
				}
			}
		}
		return 0.7 * best
	}
}

// bareGiven reports whether the name is a lone, full given name.
func bareGiven(n Name) bool {
	return n.Last == "" && len(n.Middle) == 0 && n.First != "" && !IsInitial(n.First)
}

func componentSim(a, b string) float64 {
	if a == b && a != "" {
		return 1
	}
	if componentCompatible(a, b) && a != "" && b != "" {
		if IsInitial(a) || IsInitial(b) {
			return 0.6
		}
		return 0.9
	}
	return strsim.JaroWinkler(a, b) * 0.5
}

func componentsOf(n Name) []string {
	out := make([]string, 0, 2+len(n.Middle))
	if n.First != "" {
		out = append(out, n.First)
	}
	out = append(out, n.Middle...)
	if n.Last != "" {
		out = append(out, n.Last)
	}
	return out
}

func middleAgree(a, b Name) bool {
	if len(a.Middle) == 0 || len(b.Middle) == 0 {
		return false
	}
	return componentCompatible(a.Middle[0], b.Middle[0])
}

// Incompatible implements the name half of the paper's constraint 2: the
// two names share one component class (first or last) exactly but differ
// completely on the other, with both sides carrying full (non-initial)
// information. Such pairs are guaranteed-distinct persons unless an email
// key overrides the constraint at a higher level.
//
// One extension beyond the paper's wording covers its own §3.4 example: a
// single-token given name ("Matt") is incompatible with a full name whose
// first name differs completely ("Michael Stonebraker"), provided the token
// does not instead match the surname ("Wong" vs "Eugene Wong" stays
// compatible).
func Incompatible(a, b Name) bool {
	if a.IsEmpty() || b.IsEmpty() {
		return false
	}
	completelyDifferent := func(x, y string) bool {
		return !componentCompatible(x, y) && strsim.JaroWinkler(x, y) < 0.8
	}
	// Single-token given name vs full name (§3.4's "Matt" case).
	if a.Last == "" || b.Last == "" {
		solo, full := a, b
		if b.Last == "" {
			solo, full = b, a
		}
		if solo.Last != "" || solo.First == "" || IsInitial(solo.First) {
			return false
		}
		if full.Last == "" || full.First == "" || IsInitial(full.First) {
			return false
		}
		return completelyDifferent(solo.First, full.First) &&
			completelyDifferent(solo.First, full.Last)
	}
	fullFirsts := a.First != "" && b.First != "" && !IsInitial(a.First) && !IsInitial(b.First)
	if !fullFirsts {
		return false
	}
	firstSame := componentCompatible(a.First, b.First)
	lastSame := lastNameClose(a.Last, b.Last)
	if firstSame && completelyDifferent(a.Last, b.Last) {
		return true
	}
	if lastSame && completelyDifferent(a.First, b.First) {
		return true
	}
	return false
}
