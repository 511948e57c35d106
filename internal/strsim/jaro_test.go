package strsim

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestJaroKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"martha", "marhta", 0.9444444444444445},
		{"dixon", "dicksonx", 0.7666666666666666},
		{"jellyfish", "smellyfish", 0.8962962962962964},
		{"", "", 1},
		{"", "a", 0},
		{"abc", "abc", 1},
		{"abc", "xyz", 0},
	}
	for _, c := range cases {
		if got := jaro(c.a, c.b); !approx(got, c.want) {
			t.Errorf("Jaro(%q,%q) = %.10f, want %.10f", c.a, c.b, got, c.want)
		}
	}
}

func TestJaroWinklerKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"martha", "marhta", 0.9611111111111111},
		{"dixon", "dicksonx", 0.8133333333333332},
		{"", "", 1},
		{"same", "same", 1},
	}
	for _, c := range cases {
		if got := JaroWinkler(c.a, c.b); !approx(got, c.want) {
			t.Errorf("JaroWinkler(%q,%q) = %.10f, want %.10f", c.a, c.b, got, c.want)
		}
	}
}

func TestJaroWinklerAtLeastJaro(t *testing.T) {
	f := func(a, b string) bool {
		j, jw := jaro(a, b), JaroWinkler(a, b)
		return jw >= j-1e-12 && jw <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJaroWinklerPClamping(t *testing.T) {
	// p > 0.25 is capped; must never exceed 1.
	if s := jaroWinklerP("prefix", "prefixes", 5.0); s > 1 {
		t.Errorf("clamped JaroWinklerP exceeded 1: %f", s)
	}
	if s := jaroWinklerP("prefix", "prefixes", -1); s < 0 || s > 1 {
		t.Errorf("negative p should behave like p=0, got %f", s)
	}
	if got, want := jaroWinklerP("martha", "marhta", 0), jaro("martha", "marhta"); !approx(got, want) {
		t.Errorf("p=0 should equal Jaro: %f vs %f", got, want)
	}
}

func TestJaroCaseInsensitive(t *testing.T) {
	if !approx(jaro("MARTHA", "marhta"), jaro("martha", "marhta")) {
		t.Error("Jaro should normalize case")
	}
}
