package corrupt

import (
	"math/rand"
	"testing"

	"refrecon/internal/datagen/pim"
	"refrecon/internal/schema"
)

func TestOpsNeverPanicAndKeepShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inputs := []string{"", "a", "ab", "abc", "Michael Stonebraker",
		"stonebraker@csail.mit.edu", "日本語 text", "x y z w"}
	for _, op := range DefaultOps() {
		for _, in := range inputs {
			for i := 0; i < 20; i++ {
				out := op(rng, in)
				if in != "" && out == "" {
					t.Errorf("operator erased %q entirely", in)
				}
			}
		}
	}
}

func TestOCRConfuse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	out := OCRConfuse(rng, "hello")
	if out == "hello" {
		t.Error("confusable characters present; expected a substitution")
	}
	if OCRConfuse(rng, "qqq") != "qqq" {
		t.Error("no confusable characters; expected identity")
	}
}

func TestDropToken(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if DropToken(rng, "single") != "single" {
		t.Error("single token must survive")
	}
	out := DropToken(rng, "a b c")
	if len(out) >= len("a b c") {
		t.Errorf("DropToken(%q) = %q", "a b c", out)
	}
}

func TestStoreZeroRateIsIdentity(t *testing.T) {
	g, err := pim.Generate(pim.DatasetA(0.02))
	if err != nil {
		t.Fatal(err)
	}
	copy := Store(g.Store, 1, 0, nil)
	if copy.Len() != g.Store.Len() {
		t.Fatalf("len %d vs %d", copy.Len(), g.Store.Len())
	}
	for i := 0; i < copy.Len(); i++ {
		a, b := g.Store.All()[i], copy.All()[i]
		if a.String() != b.String() || a.Entity != b.Entity || a.Source != b.Source {
			t.Fatalf("ref %d differs: %v vs %v", i, a, b)
		}
	}
	if err := copy.Validate(schema.PIM(), 0); err != nil {
		t.Fatal(err)
	}
}

func TestStoreCorruptsAtRate(t *testing.T) {
	g, err := pim.Generate(pim.DatasetA(0.02))
	if err != nil {
		t.Fatal(err)
	}
	noisy := Store(g.Store, 7, 0.5, nil)
	changed, total := 0, 0
	for i := 0; i < noisy.Len(); i++ {
		a, b := g.Store.All()[i], noisy.All()[i]
		for _, attr := range a.AtomicAttrs() {
			va, vb := a.Atomic(attr), b.Atomic(attr)
			for j := range va {
				total++
				if j < len(vb) && va[j] != vb[j] {
					changed++
				}
			}
		}
		// Associations and labels survive corruption.
		if a.Entity != b.Entity {
			t.Fatal("entity label corrupted")
		}
		for _, attr := range a.AssocAttrs() {
			if len(a.Assoc(attr)) != len(b.Assoc(attr)) {
				t.Fatal("association corrupted")
			}
		}
	}
	frac := float64(changed) / float64(total)
	// Operators sometimes return inputs unchanged, so realized rate is
	// below 0.5 but must be substantial.
	if frac < 0.25 || frac > 0.55 {
		t.Errorf("realized corruption rate %.2f, want ~0.3-0.5", frac)
	}
	if err := noisy.Validate(schema.PIM(), 0); err != nil {
		t.Fatal(err)
	}
}

func TestStoreDeterministic(t *testing.T) {
	g, err := pim.Generate(pim.DatasetA(0.02))
	if err != nil {
		t.Fatal(err)
	}
	n1 := Store(g.Store, 42, 0.3, nil)
	n2 := Store(g.Store, 42, 0.3, nil)
	for i := 0; i < n1.Len(); i++ {
		if n1.All()[i].String() != n2.All()[i].String() {
			t.Fatalf("nondeterministic corruption at ref %d", i)
		}
	}
	n3 := Store(g.Store, 43, 0.3, nil)
	diff := false
	for i := 0; i < n1.Len(); i++ {
		if n1.All()[i].String() != n3.All()[i].String() {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds should corrupt differently")
	}
}
