package emailaddr

import (
	"testing"
	"testing/quick"
)

// NameSim is NameSimRarity with every surname fully identifying.
func NameSim(rawName string, a Address) float64 {
	return NameSimRarity(rawName, a, nil)
}

func TestParse(t *testing.T) {
	cases := []struct {
		in      string
		display string
		local   string
		domain  string
		ok      bool
	}{
		{"stonebraker@csail.mit.edu", "", "stonebraker", "csail.mit.edu", true},
		{"<eugene@berkeley.edu>", "", "eugene", "berkeley.edu", true},
		{"Michael Stonebraker <stonebraker@csail.mit.edu>", "Michael Stonebraker", "stonebraker", "csail.mit.edu", true},
		{`"Stonebraker, Michael" <stonebraker@mit.edu>`, "Stonebraker, Michael", "stonebraker", "mit.edu", true},
		{"UPPER@CASE.EDU", "", "upper", "case.edu", true},
		{"not an address", "not an address", "", "", false},
		{"", "", "", "", false},
		{"@nodomain", "@nodomain", "", "", false},
		{"nolocal@", "nolocal@", "", "", false},
	}
	for _, c := range cases {
		a, ok := Parse(c.in)
		if ok != c.ok || a.Display != c.display || a.Local != c.local || a.Domain != c.domain {
			t.Errorf("Parse(%q) = %+v ok=%v, want display=%q local=%q domain=%q ok=%v",
				c.in, a, ok, c.display, c.local, c.domain, c.ok)
		}
	}
}

func TestKeyAndServer(t *testing.T) {
	a, _ := Parse("stonebraker@csail.mit.edu")
	if a.Key() != "stonebraker@csail.mit.edu" {
		t.Errorf("Key = %q", a.Key())
	}
	if a.Server() != "mit.edu" {
		t.Errorf("Server = %q", a.Server())
	}
	b, _ := Parse("x@mit.edu")
	if b.Server() != "mit.edu" {
		t.Errorf("two-label Server = %q", b.Server())
	}
	var zero Address
	if zero.Key() != "" || zero.Server() != "" || !zero.IsZero() {
		t.Error("zero address should have empty key/server")
	}
}

func TestString(t *testing.T) {
	a, _ := Parse("Eugene Wong <eugene@berkeley.edu>")
	if a.String() != "Eugene Wong <eugene@berkeley.edu>" {
		t.Errorf("String = %q", a.String())
	}
	b, _ := Parse("eugene@berkeley.edu")
	if b.String() != "eugene@berkeley.edu" {
		t.Errorf("String = %q", b.String())
	}
}

func TestLocalTokens(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"m.stonebraker42@x.edu", []string{"m", "stonebraker"}},
		{"eugene_wong@x.edu", []string{"eugene", "wong"}},
		{"jdoe@x.edu", []string{"jdoe"}},
		{"123@x.edu", nil},
	}
	for _, c := range cases {
		a, _ := Parse(c.in)
		got := a.LocalTokens()
		if len(got) != len(c.want) {
			t.Errorf("LocalTokens(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("LocalTokens(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func mustParse(t *testing.T, s string) Address {
	t.Helper()
	a, ok := Parse(s)
	if !ok {
		t.Fatalf("Parse(%q) failed", s)
	}
	return a
}

func TestSim(t *testing.T) {
	same := mustParse(t, "stonebraker@csail.mit.edu")
	if Sim(same, same) != 1 {
		t.Error("identical keys should score 1")
	}
	// Same local, different server: strong.
	a := mustParse(t, "stonebraker@csail.mit.edu")
	b := mustParse(t, "stonebraker@berkeley.edu")
	if s := Sim(a, b); s < 0.8 {
		t.Errorf("same local different server = %f, want >= 0.8", s)
	}
	// Same server, different accounts: weak.
	c := mustParse(t, "wong@csail.mit.edu")
	if s := Sim(a, c); s > 0.3 {
		t.Errorf("same server different local = %f, want <= 0.3", s)
	}
	var zero Address
	if Sim(zero, zero) != 1 || Sim(zero, a) != 0 {
		t.Error("zero-address handling wrong")
	}
}

func TestSimSymmetricBounded(t *testing.T) {
	f := func(x, y string) bool {
		a, _ := Parse(x)
		b, _ := Parse(y)
		s1, s2 := Sim(a, b), Sim(b, a)
		return s1 == s2 && s1 >= 0 && s1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNameSim(t *testing.T) {
	addr := mustParse(t, "stonebraker@csail.mit.edu")
	cases := []struct {
		name string
		min  float64
		max  float64
	}{
		{"Stonebraker, M.", 0.85, 1},     // the paper's flagship example
		{"Michael Stonebraker", 0.85, 1}, // full name, surname local part
		{"mike", 0, 0.35},                // nickname alone: weak
		{"Jennifer Widom", 0, 0.45},      // unrelated
		{"", 0, 0},
	}
	for _, c := range cases {
		got := NameSim(c.name, addr)
		if got < c.min || got > c.max {
			t.Errorf("NameSim(%q, stonebraker@...) = %f, want in [%f,%f]", c.name, got, c.min, c.max)
		}
	}
}

func TestNameSimDottedLocal(t *testing.T) {
	addr := mustParse(t, "michael.stonebraker@mit.edu")
	if s := NameSim("Stonebraker, M.", addr); s < 0.9 {
		t.Errorf("dotted local vs abbreviated name = %f, want >= 0.9", s)
	}
	if s := NameSim("Michael Stonebraker", addr); s != 1 {
		t.Errorf("dotted local vs full name = %f, want 1", s)
	}
}

func TestNameSimFusedLocal(t *testing.T) {
	addr := mustParse(t, "mstonebraker@mit.edu")
	if s := NameSim("Michael Stonebraker", addr); s != 1 {
		t.Errorf("fused initial+surname = %f, want 1", s)
	}
}

func TestNameSimContradictions(t *testing.T) {
	cases := []struct {
		name, addr string
		max        float64
		why        string
	}{
		{"Ming Yuan", "ling.yuan@gmail.com", 0.35, "competing given name"},
		{"Yuan, M.", "ling.yuan@gmail.com", 0.35, "competing initial"},
		{"Ming Yuan", "l.yuan@gmail.com", 0.35, "competing single initial"},
	}
	for _, c := range cases {
		a := mustParse(t, c.addr)
		if got := NameSim(c.name, a); got > c.max {
			t.Errorf("NameSim(%q, %s) = %f, want <= %f (%s)", c.name, c.addr, got, c.max, c.why)
		}
	}
}

func TestNameSimExtraSurnamePart(t *testing.T) {
	// The local spells a double surname the reference lacks: agreement is
	// blocked from reaching the full score but is not a contradiction.
	a := mustParse(t, "andrew.henderson-gonzalez@csail.mit.edu")
	got := NameSim("Andy Henderson", a)
	if got > 0.75 {
		t.Errorf("extra surname part should cap the score: %f", got)
	}
	if got < 0.4 {
		t.Errorf("agreement with extra part is not a contradiction: %f", got)
	}
	// The matching double-surname reference still scores 1.
	if got := NameSim("Andrew Henderson-Gonzalez", a); got != 1 {
		t.Errorf("full double-surname match = %f, want 1", got)
	}
}

func TestNameSimRarityWeighting(t *testing.T) {
	addr := mustParse(t, "yuan@gmail.com")
	common := NameSimRarity("Ming Yuan", addr, func(initial, surname string) float64 { return 0.2 })
	rare := NameSimRarity("Ming Yuan", addr, func(initial, surname string) float64 { return 1.0 })
	if !(rare > common) {
		t.Errorf("rarity must scale surname-only evidence: rare %f vs common %f", rare, common)
	}
	if common > 0.7 {
		t.Errorf("common surname local = %f, want <= 0.7", common)
	}
}

func TestNameSimBounded(t *testing.T) {
	f := func(name, addr string) bool {
		a, _ := Parse(addr)
		s := NameSim(name, a)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestParseRejectsSeparatorAddresses pins the FuzzEmail-driven hardening:
// an "address" whose local or domain carries list/header syntax must fail
// to parse instead of leaking the separator through Key() into rendered
// headers.
func TestParseRejectsSeparatorAddresses(t *testing.T) {
	for _, raw := range []string{
		"0@0,0", "a,b@c", "x@d;e", `q"u@dom`, "a@b@c",
	} {
		a, ok := Parse(raw)
		if ok {
			t.Errorf("Parse(%q) ok with key %q, want rejection", raw, a.Key())
		}
		if a.Key() != "" {
			t.Errorf("Parse(%q) produced key %q after rejection", raw, a.Key())
		}
	}
}

// TestCleanDisplayIdempotent: display cleaning must reach a fixed point in
// one pass (mixed quote/space shells peeled one layer per parse made
// render/parse oscillate).
func TestCleanDisplayIdempotent(t *testing.T) {
	for _, raw := range []string{`"'  x  '"`, "' a '", `" b '`, "c"} {
		once := cleanDisplay(raw)
		if twice := cleanDisplay(once); once != twice {
			t.Errorf("cleanDisplay(%q): %q then %q", raw, once, twice)
		}
	}
}
