// Package unionfind implements a disjoint-set forest with union by rank and
// path compression. The reconciler uses it to compute the transitive
// closure of pairwise merge decisions into entity partitions (the final
// step of the algorithm in Figure 4 of the paper).
package unionfind

// UF is a disjoint-set forest over dense integer ids [0, n). The zero value
// is unusable; construct with New.
type UF struct {
	parent []int
	rank   []byte
}

// New returns a forest of n singleton sets.
func New(n int) *UF {
	u := &UF{parent: make([]int, n), rank: make([]byte, n)}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

// Len returns the number of elements.
func (u *UF) Len() int { return len(u.parent) }

// Find returns the canonical representative of x's set.
func (u *UF) Find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

// Union merges the sets containing x and y and reports whether a merge
// actually happened (false when they were already joined).
func (u *UF) Union(x, y int) bool {
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return false
	}
	if u.rank[rx] < u.rank[ry] {
		rx, ry = ry, rx
	}
	u.parent[ry] = rx
	if u.rank[rx] == u.rank[ry] {
		u.rank[rx]++
	}
	return true
}

// Same reports whether x and y are in the same set.
func (u *UF) Same(x, y int) bool { return u.Find(x) == u.Find(y) }

// Partitions returns the sets as sorted slices of member ids, ordered by
// each set's smallest member. The output is deterministic: members are
// visited in ascending order, so each set opens at its smallest member and
// grows in order.
func (u *UF) Partitions() [][]int {
	var out [][]int
	at := make([]int, len(u.parent)) // root -> 1 + its set's index in out
	for i := range u.parent {
		r := u.Find(i)
		if at[r] == 0 {
			out = append(out, nil)
			at[r] = len(out)
		}
		out[at[r]-1] = append(out[at[r]-1], i)
	}
	return out
}
