package unionfind

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Sets returns the current number of disjoint sets.
func (u *UF) Sets() int {
	n := 0
	for i := range u.parent {
		if u.Find(i) == i {
			n++
		}
	}
	return n
}

func TestBasic(t *testing.T) {
	u := New(5)
	if u.Len() != 5 || u.Sets() != 5 {
		t.Fatalf("fresh forest wrong: len=%d sets=%d", u.Len(), u.Sets())
	}
	if !u.Union(0, 1) {
		t.Error("first union should report true")
	}
	if u.Union(1, 0) {
		t.Error("repeat union should report false")
	}
	if !u.Same(0, 1) || u.Same(0, 2) {
		t.Error("Same wrong after one union")
	}
	u.Union(2, 3)
	u.Union(1, 3)
	if u.Sets() != 2 {
		t.Errorf("Sets = %d, want 2", u.Sets())
	}
	parts := u.Partitions()
	if len(parts) != 2 {
		t.Fatalf("Partitions = %v", parts)
	}
	want0 := []int{0, 1, 2, 3}
	for i, v := range want0 {
		if parts[0][i] != v {
			t.Errorf("partition 0 = %v, want %v", parts[0], want0)
			break
		}
	}
	if len(parts[1]) != 1 || parts[1][0] != 4 {
		t.Errorf("partition 1 = %v, want [4]", parts[1])
	}
}

func TestTransitivity(t *testing.T) {
	u := New(100)
	// Chain 0-1-2-...-99.
	for i := 0; i+1 < 100; i++ {
		u.Union(i, i+1)
	}
	if u.Sets() != 1 || !u.Same(0, 99) {
		t.Error("chain should collapse to a single set")
	}
}

func TestPartitionsCoverAndDisjoint(t *testing.T) {
	f := func(pairs []struct{ A, B uint8 }) bool {
		u := New(64)
		for _, p := range pairs {
			u.Union(int(p.A%64), int(p.B%64))
		}
		parts := u.Partitions()
		seen := make(map[int]bool)
		total := 0
		for _, p := range parts {
			for _, x := range p {
				if seen[x] {
					return false // overlap
				}
				seen[x] = true
				total++
			}
		}
		return total == 64 && len(parts) == u.Sets()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnionOrderIrrelevant(t *testing.T) {
	// The final partition must not depend on the order unions are applied.
	pairs := [][2]int{{0, 1}, {2, 3}, {4, 5}, {1, 2}, {5, 6}, {8, 9}}
	canonical := func(perm []int) string {
		u := New(10)
		for _, i := range perm {
			u.Union(pairs[i][0], pairs[i][1])
		}
		s := ""
		for _, p := range u.Partitions() {
			for _, x := range p {
				s += string(rune('0' + x))
			}
			s += "|"
		}
		return s
	}
	base := canonical([]int{0, 1, 2, 3, 4, 5})
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(len(pairs))
		if got := canonical(perm); got != base {
			t.Fatalf("order-dependent partitions: %q vs %q", got, base)
		}
	}
}

func TestSameIsEquivalence(t *testing.T) {
	f := func(pairs []struct{ A, B, C uint8 }) bool {
		u := New(32)
		for _, p := range pairs {
			u.Union(int(p.A%32), int(p.B%32))
		}
		for _, p := range pairs {
			a, b, c := int(p.A%32), int(p.B%32), int(p.C%32)
			if !u.Same(a, a) { // reflexive
				return false
			}
			if u.Same(a, b) != u.Same(b, a) { // symmetric
				return false
			}
			if u.Same(a, b) && u.Same(b, c) && !u.Same(a, c) { // transitive
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUnionFind(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < b.N; i++ {
		u := New(10000)
		for j := 0; j < 20000; j++ {
			u.Union(rng.Intn(10000), rng.Intn(10000))
		}
		_ = u.Sets()
	}
}
