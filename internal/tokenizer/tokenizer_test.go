package tokenizer

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

// IsStopword and Initial are helpers only these tests call.

// IsStopword reports whether the (already normalized) token is a stopword.
func IsStopword(tok string) bool { return stopwords[tok] }

// Initial returns the first letter of the normalized token, or 0 if the
// token has no letters.
func Initial(tok string) rune {
	for _, r := range Normalize(tok) {
		if unicode.IsLetter(r) {
			return r
		}
	}
	return 0
}

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"Hello World", "hello world"},
		{"  lots\t of\n space  ", "lots of space"},
		{"ÀÉÎÕÜ", "aeiou"},
		{"Müller", "muller"},
		{"Straße", "strase"},
		{"Łukasz", "lukasz"},
		{"UPPER", "upper"},
		{"already lower", "already lower"},
		{"trailing space ", "trailing space"},
		{" leading", "leading"},
		{"日本語", "日本語"}, // non-Latin passes through
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := Normalize(s)
		return Normalize(once) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizeNoUpperNoDoubleSpace(t *testing.T) {
	f := func(s string) bool {
		n := Normalize(s)
		if strings.Contains(n, "  ") {
			return false
		}
		for _, r := range n {
			if unicode.IsUpper(r) && unicode.ToLower(r) != r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWords(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"one", []string{"one"}},
		{"Hello, World!", []string{"hello", "world"}},
		{"a-b_c.d", []string{"a", "b", "c", "d"}},
		{"e2e 2025 test", []string{"e2e", "2025", "test"}},
		{"René Müller", []string{"rene", "muller"}},
		{"  punctuation,,, only!!! ", []string{"punctuation", "only"}},
		{"...", nil},
	}
	for _, c := range cases {
		if got := Words(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Words(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestWordsAreNormalized(t *testing.T) {
	f := func(s string) bool {
		for _, w := range Words(s) {
			if w == "" || w != Normalize(w) {
				return false
			}
			for _, r := range w {
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestContentWords(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"The Theory of Record Linkage", []string{"theory", "record", "linkage"}},
		{"of the", []string{"of", "the"}}, // all stopwords: keep original
		{"Querying in Databases", []string{"querying", "databases"}},
		{"", nil},
	}
	for _, c := range cases {
		if got := ContentWords(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("ContentWords(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestIsStopword(t *testing.T) {
	if !IsStopword("the") || !IsStopword("of") {
		t.Error("expected the/of to be stopwords")
	}
	if IsStopword("database") {
		t.Error("database should not be a stopword")
	}
}

func TestInitial(t *testing.T) {
	cases := []struct {
		in   string
		want rune
	}{
		{"Stonebraker", 's'},
		{"  Wong", 'w'},
		{"Émile", 'e'},
		{"42", 0},
		{"", 0},
		{"3M Corp", 'm'},
	}
	for _, c := range cases {
		if got := Initial(c.in); got != c.want {
			t.Errorf("Initial(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestEqualFolded(t *testing.T) {
	if !EqualFolded("Michael  Stonebraker", "michael stonebraker") {
		t.Error("expected fold-equal")
	}
	if EqualFolded("Michael", "Michelle") {
		t.Error("expected not equal")
	}
}

// TestAppendNormalizedRunesMatchesNormalize pins the zero-allocation
// normalization path to the string-returning reference implementation:
// for any input, AppendNormalizedRunes must produce exactly the runes of
// Normalize, including appending after existing buffer content.
func TestAppendNormalizedRunesMatchesNormalize(t *testing.T) {
	f := func(s string) bool {
		got := AppendNormalizedRunes(nil, s)
		if string(got) != Normalize(s) {
			return false
		}
		// Appending after a prefix must leave the prefix untouched.
		pre := []rune{'x', 'y'}
		ext := AppendNormalizedRunes(pre, s)
		return string(ext[:2]) == "xy" && string(ext[2:]) == Normalize(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(mostlyASCII(f), nil); err != nil {
		t.Error(err)
	}
	for _, s := range append([]string{
		"", "   ", "José  García-Molina ", "ACM SIGMOD\t1978", "ß, Ł, Đ",
	}, fastPathInputs()...) {
		if got := string(AppendNormalizedRunes(nil, s)); got != Normalize(s) {
			t.Errorf("AppendNormalizedRunes(%q) = %q, want %q", s, got, Normalize(s))
		}
	}
}

// mostlyASCII adapts a string property to random byte strings that are
// seven-eighths ASCII (quick's own strings almost never are), so runs of
// fast-path bytes meet multi-byte runes and invalid UTF-8.
func mostlyASCII(f func(string) bool) func([]byte) bool {
	return func(b []byte) bool {
		for i := range b {
			if b[i]%8 != 0 {
				b[i] &= 0x7f
			}
		}
		return f(string(b))
	}
}

// fastPathInputs are strings chosen to cross the ASCII fast paths of
// AppendNormalizedRunes and Words: every ASCII byte alone and between
// letters (all six ASCII spaces, the control bytes next to them, case and
// digit range ends), ASCII next to multi-byte runes, and invalid UTF-8.
func fastPathInputs() []string {
	var all []byte
	out := []string{"a\x80b", "\xff", "x\xc3", "A\u00a0B\u0085C", "É\tÉ  é", "x\u2003y", "İi", "ǅ1"}
	for c := 0; c < 0x80; c++ {
		all = append(all, byte(c))
		out = append(out, string(rune(c)), "a"+string(rune(c))+"Z", "é"+string(rune(c))+"É")
	}
	return append(out, string(all))
}

// wordsReference is Words without the ASCII fast path: every rune goes
// through foldRune and the unicode tables.
func wordsReference(s string) []string {
	var out []string
	var tok []rune
	for _, r := range s {
		r = foldRune(r)
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			tok = append(tok, unicode.ToLower(r))
		} else if len(tok) > 0 {
			out = append(out, string(tok))
			tok = tok[:0]
		}
	}
	if len(tok) > 0 {
		out = append(out, string(tok))
	}
	return out
}

func TestWordsMatchesReference(t *testing.T) {
	f := func(s string) bool { return reflect.DeepEqual(Words(s), wordsReference(s)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(mostlyASCII(f), nil); err != nil {
		t.Error(err)
	}
	for _, s := range fastPathInputs() {
		if got, want := Words(s), wordsReference(s); !reflect.DeepEqual(got, want) {
			t.Errorf("Words(%q) = %q, want %q", s, got, want)
		}
	}
}
