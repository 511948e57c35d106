package recon

import (
	"reflect"
	"slices"
	"testing"

	"refrecon/internal/depgraph"
	"refrecon/internal/schema"
	"refrecon/internal/simfn"
)

// TestRowsNameDeclaredAttributes: a misspelt attribute in a row compares,
// keys or links nothing, silently. Every attribute a literal row names must
// be declared with the right kind by the PIM schema, with the right kind
// wherever Cora (which declares a subset) declares it, and conversely every
// attribute those schemas declare on the class must be one the row reads.
func TestRowsNameDeclaredAttributes(t *testing.T) {
	for _, tc := range []struct {
		name     string
		sch      *schema.Schema
		complete bool
	}{{"PIM", schema.PIM(), true}, {"Cora", schema.Cora(), false}} {
		for class, row := range classModels {
			c, ok := tc.sch.Class(class)
			if !ok {
				t.Errorf("%s: no class %s for its row", tc.name, class)
				continue
			}
			used := make(map[string]bool)
			check := func(what, attr string, kind schema.AttrKind) {
				used[attr] = true
				a, ok := c.Attr(attr)
				if ok && a.Kind != kind {
					t.Errorf("%s %s: %s names %q, declared %s", tc.name, class, what, attr, a.Kind)
				}
				if !ok && tc.complete {
					t.Errorf("%s %s: %s names undeclared attribute %q", tc.name, class, what, attr)
				}
			}
			for _, cmp := range row.compare {
				check("comparison", cmp.attrA, schema.Atomic)
				check("comparison", cmp.attrB, schema.Atomic)
				if (cmp.keys != nil || cmp.by.Feed != nil) && (cmp.attrA != cmp.attrB || cmp.from != 0) {
					t.Errorf("%s: keys or a statistics feed on %+v, which is not an unconditional same-attribute row", class, cmp)
				}
			}
			for _, rule := range row.assoc {
				if rule.pool == nil {
					check("association rule", rule.attr, schema.Association)
				}
				for _, p := range rule.pool {
					check("association pool", p, schema.Association)
				}
			}
			if row.distinct != "" {
				check("distinct-targets constraint", row.distinct, schema.Association)
			}
			for _, a := range c.Attrs {
				if !used[a.Name] {
					t.Errorf("%s %s: declared attribute %q is read by no rule of the row", tc.name, class, a.Name)
				}
			}
		}
	}
}

// TestLiteralRowsBindNamedComparators: every comparison of a literal row
// binds a comparator-table row of its own — never the generic one, which has
// no statistics, floor or alias rule of the attribute's — and its edge label
// is that row's name at every evidence level.
func TestLiteralRowsBindNamedComparators(t *testing.T) {
	for class, row := range classModels {
		for level := EvidenceAttrWise; level <= EvidenceContact; level++ {
			for _, cmp := range row.at(level).compare {
				if cmp.by == nil || cmp.by == simfn.Generic || simfn.Lookup(cmp.by.Name) != cmp.by || cmp.evidence != cmp.by.Name {
					t.Errorf("%s at %s: comparison %s x %s labelled %q binds %+v", class, level, cmp.attrA, cmp.attrB, cmp.evidence, cmp.by)
				}
			}
		}
	}
}

// TestLiteralRowsBindScoreRows: every literal row binds a score-table row
// of its own, the one the engine's scorer resolves for the class, and every
// real-valued evidence label its comparisons and association rules can emit
// is one that row's tree reads — a label the tree ignores is dead evidence.
// (Boolean labels are counted by dependency type, not read by name.)
func TestLiteralRowsBindScoreRows(t *testing.T) {
	scores := newEvidence(schema.PIM(), DefaultConfig()).scores
	for class, row := range classModels {
		if row.score == nil || row.score == simfn.ScoreGeneric || scores[class] != row.score {
			t.Fatalf("%s: row binds score row %p, scorer resolves %p", class, row.score, scores[class])
		}
		at := row.at(EvidenceContact)
		var labels []string
		for _, cmp := range at.compare {
			labels = append(labels, cmp.evidence)
		}
		for _, rule := range at.assoc {
			if rule.dep == depgraph.RealValued {
				labels = append(labels, rule.evidence)
			}
		}
		for _, l := range labels {
			if !slices.Contains(row.score.Reads, l) {
				t.Errorf("%s: the row emits real-valued evidence %q, which its tree (reading %v) ignores", class, l, row.score.Reads)
			}
		}
	}
}

// TestDefaultRow: a class without a literal row gets genericComparisons
// (each atomic attribute with itself by the generic comparator, which feeds
// no statistics, keyed on content words) scored by the generic score row,
// one weak-boolean rule per association, and nothing else.
func TestDefaultRow(t *testing.T) {
	if simfn.Generic.Feed != nil {
		t.Error("the generic comparator feeds a statistic")
	}
	for _, c := range schema.Catalog().Classes() {
		m := modelFor(c)
		want := genericComparisons(c)
		if len(m.compare) != len(want) || len(want) != len(c.AtomicAttrs()) {
			t.Fatalf("%s: %d comparisons, genericComparisons has %d", c.Name, len(m.compare), len(want))
		}
		for i, cmp := range m.compare {
			a := c.AtomicAttrs()[i].Name
			if cmp.attrA != a || cmp.attrB != a || cmp.by != simfn.Generic || cmp.evidence != want[i].evidence || cmp.evidence != "g:"+a || cmp.swap || cmp.from != 0 || cmp.keys == nil {
				t.Errorf("%s: comparison %+v is not the generic one for %q", c.Name, cmp, a)
			}
		}
		var rules []assocRule
		for _, a := range c.AssocAttrs() {
			rules = append(rules, assocRule{attr: a.Name, evidence: "ga:" + a.Name, dep: depgraph.WeakBoolean})
		}
		if !reflect.DeepEqual(m.assoc, rules) {
			t.Errorf("%s: association rules %+v, want %+v", c.Name, m.assoc, rules)
		}
		if m.constrained != nil || m.distinct != "" || m.keepInduced {
			t.Errorf("%s: default row carries a constraint: %+v", c.Name, m)
		}
		if m.score != simfn.ScoreGeneric {
			t.Errorf("%s: default row is not scored by ScoreGeneric", c.Name)
		}
		if at := m.at(EvidenceAttrWise); len(at.compare) != len(m.compare) || !reflect.DeepEqual(at.assoc, m.assoc) {
			t.Errorf("%s: the default row depends on the evidence level", c.Name)
		}
	}
}
