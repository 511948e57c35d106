package strsim

import (
	"testing"
	"testing/quick"
)

func TestSoundexKnownCodes(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Robert", "R163"},
		{"Rupert", "R163"},
		{"Ashcraft", "A261"}, // h does not reset adjacency
		{"Ashcroft", "A261"},
		{"Tymczak", "T522"},
		{"Pfister", "P236"},
		{"Honeyman", "H555"},
		{"Washington", "W252"},
		{"Lee", "L000"},
		{"Gutierrez", "G362"},
		{"Jackson", "J250"},
		{"", ""},
		{"123", ""},
		{"Stonebraker, M.", Soundex("Stonebraker")}, // first token only
	}
	for _, c := range cases {
		if got := Soundex(c.in); got != c.want {
			t.Errorf("Soundex(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSoundexShape(t *testing.T) {
	f := func(s string) bool {
		c := Soundex(s)
		if c == "" {
			return true
		}
		if len(c) != 4 {
			return false
		}
		if c[0] < 'A' || c[0] > 'Z' {
			return false
		}
		for _, d := range c[1:] {
			if d < '0' || d > '6' {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
